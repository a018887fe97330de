package rewrite

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/chains"
	"bohrium/internal/tensor"
)

// The golden rewrite corpus pins what the optimizer does, byte for byte:
// for every program, the optimized listing, the applications per rule in
// pipeline order, and the pass count. A change to the matcher or the
// engine that alters any rule's choice of site, order or result shows up
// here as a diff. Regenerate with
//
//	go test -run TestOptimizeGolden ./internal/rewrite/ -update
//
// only when a change of behaviour is intended.

var update = flag.Bool("update", false, "rewrite testdata/optimize.golden from the current optimizer")

const goldenPath = "testdata/optimize.golden"

type goldenCase struct {
	name string
	pl   *Pipeline
	prog *bytecode.Program
}

// solveListing is the equation (2) program of TestPipelineSoundOnSolve.
const solveListing = `
.reg a0 float64 16
.reg a1 float64 16
.reg a2 float64 4
.reg a3 float64 4
BH_RANDOM a0 [0:16:1] 7 0
BH_ADD a0 [0:20:5] a0 [0:20:5] 8.0
BH_RANDOM a2 [0:4:1] 9 0
BH_INVERSE a1 [0:16:4][0:4:1] a0 [0:16:4][0:4:1]
BH_MATMUL a3 [0:4:1][0:1:1] a1 [0:16:4][0:4:1] a2 [0:4:1][0:1:1]
BH_SYNC a3
`

// powerProgram is the x^n program of TestPipelineSoundOnPowerChains.
func powerProgram(n int) *bytecode.Program {
	p := bytecode.NewProgram()
	a0 := p.NewReg(tensor.Float64, 16)
	a1 := p.NewReg(tensor.Float64, 16)
	v := tensor.NewView(tensor.MustShape(16))
	p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstFloat(1.0001)))
	p.EmitBinary(bytecode.OpPower, bytecode.Reg(a1, v), bytecode.Reg(a0, v),
		bytecode.Const(bytecode.ConstInt(int64(n))))
	p.EmitSync(bytecode.Reg(a1, v))
	return p
}

// listingFiles parses every listing matching glob, named by its path.
func listingFiles(t testing.TB, glob string) []goldenCase {
	t.Helper()
	paths, err := filepath.Glob(glob)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no listings match %s (%v)", glob, err)
	}
	var cases []goldenCase
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bytecode.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cases = append(cases, goldenCase{filepath.ToSlash(path), Default(), p})
	}
	return cases
}

// coldCorpus is one recorded batch per cold-rewrite family.
func coldCorpus(t testing.TB) []goldenCase {
	return listingFiles(t, "testdata/cold/*.bh")
}

func goldenCorpus(t testing.TB) []goldenCase {
	cases := []goldenCase{
		{"paper/listing2", Default(), bytecode.MustParse(listing2)},
		{"paper/listing4", Default(), bytecode.MustParse(listing4)},
		{"paper/solve", Default(), bytecode.MustParse(solveListing)},
	}
	for _, n := range []int{2, 3, 4, 7, 8, 10, 15, 16, 17, 31, 32, 33, 64, 100} {
		for _, strat := range []chains.Strategy{
			chains.StrategyNaive, chains.StrategySquareIncrement,
			chains.StrategyBinary, chains.StrategyOptimal,
		} {
			pl := Build(Options{
				PowerExpand:           true,
				PowerStrategy:         strat,
				PowerAllowTemporaries: strat == chains.StrategyOptimal,
			})
			cases = append(cases, goldenCase{fmt.Sprintf("paper/power/%s/%d", strat, n), pl, powerProgram(n)})
		}
	}
	cases = append(cases, listingFiles(t, "../../examples/*/listing.bh")...)
	cases = append(cases, coldCorpus(t)...)
	for _, n := range []int{6, 18} {
		for seed := uint64(0); seed < 500; seed++ {
			cases = append(cases, goldenCase{fmt.Sprintf("random/%d/%d", n, seed), Default(), randomProgram(seed, n)})
		}
	}
	return cases
}

// goldenRecord renders one case's optimization result.
func goldenRecord(c goldenCase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", c.name)
	out, report, err := c.pl.Optimize(c.prog)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "passes %d\napplied", report.Passes)
	for _, r := range c.pl.Rules() {
		fmt.Fprintf(&b, " %s=%d", r.Name(), report.Applied[r.Name()])
	}
	b.WriteByte('\n')
	b.WriteString(out.String())
	return b.String()
}

func TestOptimizeGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCorpus(t) {
		b.WriteString(goldenRecord(c))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotRecs := strings.SplitAfter(got, "\n== ")
	wantRecs := strings.SplitAfter(string(want), "\n== ")
	for i := 0; i < len(gotRecs) && i < len(wantRecs); i++ {
		if gotRecs[i] != wantRecs[i] {
			t.Fatalf("record %d differs from %s:\ngot:\n%s\nwant:\n%s", i, goldenPath, gotRecs[i], wantRecs[i])
		}
	}
	t.Fatalf("%s has %d records, the optimizer produced %d", goldenPath, len(wantRecs), len(gotRecs))
}
