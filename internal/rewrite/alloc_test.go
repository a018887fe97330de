package rewrite

import (
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The matcher and the no-fire path of the pipeline allocate nothing of
// their own: a miss costs its clone and its report.

func TestFindFromAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	hit := bytecode.MustParse(listing2)
	miss := bytecode.MustParse(`
.reg a0 float64 10
.reg a1 float64 10
BH_IDENTITY a0 0
BH_IDENTITY a1 0
BH_ADD a0 a0 1
BH_SYNC a0
BH_ADD a0 a0 2
BH_ADD a1 a1 2
BH_SYNC a1
`)
	for _, c := range []struct {
		name string
		p    *bytecode.Program
		want bool
	}{{"matching", hit, true}, {"non-matching", miss, false}} {
		if _, ok := addMergePattern.FindFrom(c.p, 0); ok != c.want {
			t.Fatalf("%s program: FindFrom found %v, want %v", c.name, ok, c.want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			addMergePattern.FindFrom(c.p, 0)
		})
		if allocs != 0 {
			t.Errorf("%s program: FindFrom allocates %v times, want 0", c.name, allocs)
		}
	}
}

// noFireListing is 17 byte-codes on which no default rule applies.
const noFireListing = `
.reg a0 float64 64
.reg a1 float64 64
.reg a2 float64 64
.reg a3 float64 64
.in a0
.in a1
BH_ADD a2 a0 a1
BH_MULTIPLY a3 a2 a0
BH_SUBTRACT a2 a3 a1
BH_ADD a0 a0 2.0
BH_MULTIPLY a1 a1 a2
BH_MAXIMUM a3 a3 a0
BH_ADD a2 a2 a3
BH_MULTIPLY a0 a0 3.0
BH_SQRT a3 a1
BH_ADD a1 a1 a0
BH_SUBTRACT a2 a2 1.0
BH_MULTIPLY a3 a3 a2
BH_ADD a0 a0 a1
BH_SYNC a0
BH_SYNC a1
BH_SYNC a2
BH_SYNC a3
`

func TestOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := bytecode.MustParse(noFireListing)
	if p.Len() != 17 {
		t.Fatalf("listing has %d byte-codes, want 17", p.Len())
	}
	pl := Default()
	_, report, err := pl.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := report.TotalApplied(); n != 0 {
		t.Fatalf("%d rules fired on the no-fire listing: %v", n, report.Applied)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := pl.Optimize(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Optimize allocates %v times on a no-fire program, want <= 8 (clone and report)", allocs)
	}
}

// noisyPairs is k pairs "a += c; noise *= noise" between the two
// initializations and the final combine, free and sync of cold-rewrite's
// noisy family: the gap before the i-th add holds i-1 unrelated
// byte-codes, so pairwise merging with a restart at 0 is quadratic in k.
func noisyPairs(k int) *bytecode.Program {
	p := bytecode.NewProgram()
	full := tensor.NewView(tensor.MustShape(64))
	a, noise := bytecode.Reg(p.NewReg(tensor.Float64, 64), full), bytecode.Reg(p.NewReg(tensor.Float64, 64), full)
	p.EmitIdentity(a, bytecode.Const(bytecode.ConstInt(0)))
	p.EmitIdentity(noise, bytecode.Const(bytecode.ConstInt(1)))
	for i := 0; i < k; i++ {
		p.EmitBinary(bytecode.OpAdd, a, a, bytecode.Const(bytecode.ConstInt(int64(1+i%9))))
		p.EmitBinary(bytecode.OpMultiply, noise, noise, noise)
	}
	p.EmitBinary(bytecode.OpAdd, a, a, noise)
	p.EmitFree(noise)
	p.EmitSync(a)
	return p
}

// BenchmarkOptimize times the default pipeline, one program per
// iteration: "cold" cycles through the recorded cold-rewrite batches,
// "noisy32" is noisyPairs(32), whose time per op grows quadratically if
// the merges stop running in one scan.
func BenchmarkOptimize(b *testing.B) {
	for _, c := range []struct {
		name   string
		corpus []goldenCase
	}{
		{"cold", coldCorpus(b)},
		{"noisy32", []goldenCase{{"noisy32", Default(), noisyPairs(32)}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			pl := Default()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Optimize(c.corpus[i%len(c.corpus)].prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
