package vm

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// reduceScanSources are the kmeans listing's three reductions and the
// programs BenchmarkReduce and BenchmarkScan time, over n elements.
func reduceScanSources(t *testing.T, n int) map[string]string {
	t.Helper()
	kmeans, err := os.ReadFile("../../examples/kmeans/listing.bh")
	if err != nil {
		t.Fatal(err)
	}
	rows := n / 64
	return map[string]string{
		"kmeans": string(kmeans),
		"sumall": fmt.Sprintf(".reg a0 float64 %d\n.reg a1 float64 1\n.in a0\nBH_ADD_REDUCE a1 [0:1:1] a0 [0:%d:1] axis=0\nBH_SYNC a1\n", n, n),
		"rows": fmt.Sprintf(".reg a0 float64 %d\n.reg a1 float64 %d\n.in a0\nBH_ADD_REDUCE a1 [0:%d:1] a0 [0:%d:64][0:64:1] axis=1\nBH_SYNC a1\n",
			n, rows, rows, n),
		"cumsum": fmt.Sprintf(".reg a0 float64 %d\n.reg a1 float64 %d\n.in a0\nBH_ADD_ACCUMULATE a1 a0 axis=0\nBH_SYNC a1\n", n, n),
		"scan-rows": fmt.Sprintf(".reg a0 float64 %d\n.reg a1 float64 %d\n.in a0\nBH_ADD_ACCUMULATE a1 [0:%d:64][0:64:1] a0 [0:%d:64][0:64:1] axis=1\nBH_SYNC a1\n",
			n, n, n, n),
	}
}

// TestReductionScanPlansHaveNests: with fusion on and off, every cluster
// that holds a reduction or a scan compiles to a nest — nothing is left to
// the interpreter — in the kmeans listing and the programs BenchmarkReduce
// and BenchmarkScan time.
func TestReductionScanPlansHaveNests(t *testing.T) {
	for name, src := range reduceScanSources(t, 1<<14) {
		p, err := bytecode.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, fusion := range []bool{false, true} {
			m := New(Config{Fusion: fusion})
			pl, err := m.Compile(p)
			m.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			folds := 0
			for _, cl := range pl.clusters {
				for i := cl.start; i < cl.end; i++ {
					if kind := p.Instrs[i].Op.Info().Kind; kind == bytecode.KindReduction || kind == bytecode.KindScan {
						folds++
						if cl.steps == nil {
							t.Errorf("%s, fusion %v: instruction %d (%s) has no nest", name, fusion, i, p.Instrs[i].String())
						}
					}
				}
			}
			if folds == 0 {
				t.Errorf("%s: no reduction or scan", name)
			}
		}
	}
}

// TestReductionScanExecuteAllocs: a fold nest keeps its chunk partials and
// worker state in the Machine's frame, so executing a cached plan that
// holds a standalone chunk-axis sum and a chunked cumsum allocates nothing
// once the frame is sized.
func TestReductionScanExecuteAllocs(t *testing.T) {
	const n = 1 << 16
	src := fmt.Sprintf(`
.reg a0 float64 %[1]d
.reg a1 float64 1
.reg a2 float64 %[1]d
.in a0
BH_ADD_REDUCE a1 [0:1:1] a0 [0:%[1]d:1] axis=0
BH_ADD_ACCUMULATE a2 a0 axis=0
BH_SYNC a1
BH_SYNC a2
`, n)
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Fusion: true, Workers: 1})
	defer m.Close()
	if got := m.sweepStrategyFor(tensor.NewView(tensor.MustShape(1)), 1, n); got != sweepChunkAxis {
		t.Fatalf("strategy %v, want the chunk-axis one", got)
	}
	x := tensor.MustNew(tensor.Float64, tensor.MustShape(n))
	x.FillRandom(3, 0, 1)
	m.Bind(0, x)
	pl, err := m.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	exec := func() {
		if err := pl.Execute(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	exec() // size the frame
	if allocs := testing.AllocsPerRun(20, exec); allocs != 0 {
		t.Errorf("executing the cached plan makes %v allocations per run, want 0", allocs)
	}
}

// TestReductionScanErrorsMatchReference: a lone reduction or scan fails
// where the accessor engine fails, with its error text, unfused and fused —
// MIN, MAX, ARGMIN and ARGMAX over an empty axis, an input with no buffer
// — and one whose bound buffers are not of their registers' declared
// dtypes gives the accessor engine's values. An empty axis's identity fill
// past the end of a bound buffer is the bounds error any result gets (the
// accessor engine panicked).
func TestReductionScanErrorsMatchReference(t *testing.T) {
	for _, src := range []string{
		".reg a0 float64 10\n.reg a1 float64 3\nBH_RANDOM a0 5 0\nBH_MINIMUM_REDUCE a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1\n",
		".reg a0 float64 10\n.reg a1 float64 3\nBH_RANDOM a0 5 0\nBH_MAXIMUM_REDUCE a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1\n",
		".reg a0 int32 10\n.reg a1 int64 3\nBH_RANDOM a0 5 0\nBH_ARGMIN_REDUCE a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1\n",
		".reg a0 float64 10\n.reg a1 int64 3\nBH_RANDOM a0 5 0\nBH_ARGMAX_REDUCE a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1\n",
		".reg a0 float64 10\n.reg a1 float64 1\nBH_ADD_REDUCE a1 [0:1:1] a0 [0:10:1] axis=0\n",
		".reg a0 float64 10\n.reg a1 float64 10\nBH_ADD_ACCUMULATE a1 a0 axis=0\n",
	} {
		p, err := bytecode.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ref := New(Config{})
		ref.regs.grow(len(p.Regs))
		want := ref.refInterpret(p, 0, len(p.Instrs), p.Constants())
		ref.Close()
		if want == nil {
			t.Fatalf("the reference runs\n%s", src)
		}
		for _, fusion := range []bool{false, true} {
			m := New(Config{Fusion: fusion})
			err := m.CompileValidated(p).Execute(m, nil) // an unbound input is one validation would reject
			m.Close()
			if err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
				t.Errorf("fusion %v: error %v, want one ending in %q", fusion, err, want)
			}
		}
	}

	// Registers declared float64 and bool, bound to int32 and float32
	// buffers: the reduction and the scan run in the classes the buffers
	// select, as the accessor engine's did.
	src := `
.reg a0 float64 6
.reg a1 bool 2
.reg a2 float64 6
.in a0
.in a1
.in a2
BH_ADD_REDUCE a1 [0:2:1] a0 [0:6:3][0:3:1] axis=1
BH_MULTIPLY_ACCUMULATE a2 [0:6:3][0:3:1] a0 [0:6:3][0:3:1] axis=1
`
	bind := func(m *Machine) (tensor.Tensor, tensor.Tensor) {
		x := tensor.MustNew(tensor.Int32, tensor.MustShape(6))
		for i, v := range []int64{3, -3, 0, 7, 1 << 20, 1 << 20} {
			x.Buf.SetInt(i, v)
		}
		s, c := tensor.MustNew(tensor.Float32, tensor.MustShape(2)), tensor.MustNew(tensor.Float32, tensor.MustShape(6))
		m.Bind(0, x)
		m.Bind(1, s)
		m.Bind(2, c)
		return s, c
	}
	p := bytecode.MustParse(src)
	ref := New(Config{})
	defer ref.Close()
	ws, wc := bind(ref)
	ref.regs.grow(len(p.Regs))
	if err := ref.refInterpret(p, 0, len(p.Instrs), p.Constants()); err != nil {
		t.Fatal(err)
	}
	for _, fusion := range []bool{false, true} {
		m := New(Config{Fusion: fusion})
		gs, gc := bind(m)
		if err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		m.Close()
		for _, pair := range [][2]tensor.Tensor{{ws, gs}, {wc, gc}} {
			for i := 0; i < pair[0].Buf.Len(); i++ {
				if w, g := pair[0].Buf.Get(i), pair[1].Buf.Get(i); w != g {
					t.Errorf("fusion %v: element %d = %v, the reference has %v", fusion, i, g, w)
				}
			}
		}
	}

	p = bytecode.MustParse(".reg a0 float64 10\n.reg a1 float64 3\n.in a1\nBH_RANDOM a0 5 0\nBH_ADD_REDUCE a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1\n")
	m := New(Config{})
	defer m.Close()
	m.Bind(1, tensor.MustNew(tensor.Float64, tensor.MustShape(2)))
	if err := m.Run(p); err == nil || !strings.Contains(err.Error(), "spans elements [0, 2] of a 2-element buffer") {
		t.Errorf("identity fill past the end of a bound buffer: error %v", err)
	}
}
