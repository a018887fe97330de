package vm

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
)

// coldPrograms are the recorded cold-rewrite batches as a plan-cache miss
// compiles them: optimized by the default pipeline.
func coldPrograms(tb testing.TB) []*bytecode.Program {
	tb.Helper()
	paths, err := filepath.Glob("../rewrite/testdata/cold/*.bh")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no cold-rewrite listings: %v", err)
	}
	var progs []*bytecode.Program
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := bytecode.Parse(string(src))
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		opt, _, err := rewrite.Default().Optimize(p)
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, opt)
	}
	return progs
}

// BenchmarkCompile times what a miss pays to compile a vouched-for
// program, one per iteration, cycling through the cold-rewrite batches.
func BenchmarkCompile(b *testing.B) {
	progs := coldPrograms(b)
	m := New(Config{Fusion: true})
	defer m.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.CompileValidated(progs[i%len(progs)])
	}
}

// TestCompileAllocs pins a miss's compile at <= 10 allocations per
// cold-rewrite batch on average: the plan copies out of the arena once per
// kind of element it keeps, its constant vector once, and kernel steps of
// one type share one slice, as steps of one loopKey share one kernel.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := New(Config{Fusion: true})
	defer m.Close()
	progs := coldPrograms(t)
	total := 0.0
	for _, p := range progs {
		n := testing.AllocsPerRun(100, func() { m.CompileValidated(p) })
		t.Logf("%d instructions: %v allocations", len(p.Instrs), n)
		total += n
	}
	if avg := total / float64(len(progs)); avg > 10 {
		t.Errorf("Compile allocates %.1f times per cold batch, want <= 10", avg)
	}
}

// TestCompileLeavesEarlierPlans: compiling reuses the machine's arena, so a
// plan must hold none of it. Plan A — a stencil with a chain and a lagged
// write-back, a cast and a fold — executes bit for bit the same after B
// compiles on the same machine, and while B compiles concurrently with its
// execution (the recorder/executor split; run under -race).
func TestCompileLeavesEarlierPlans(t *testing.T) {
	gp, grid := stencilBatch(40)
	p := gp.prog
	sum := p.NewReg(tensor.Float64, 1)
	narrow := p.NewReg(tensor.Float32, 40*40)
	full := tensor.NewView(tensor.MustShape(40 * 40))
	p.EmitIdentity(bytecode.Reg(narrow, full), bytecode.Reg(grid, full))
	p.EmitUnary(bytecode.OpAbsolute, bytecode.Reg(narrow, full), bytecode.Reg(narrow, full))
	p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(sum, tensor.NewView(tensor.MustShape(1))), bytecode.Reg(narrow, full), 0)
	others := coldPrograms(t)
	for i := 0; i < 20; i++ {
		data := make([]byte, 128)
		for j := range data {
			data[j] = byte(i*131 + j*7)
		}
		others = append(others, (&nestGen{data: data}).update().prog, (&nestGen{data: data}).reduce().prog)
	}

	m := New(Config{Fusion: true, Workers: 2, ParallelThreshold: 64})
	defer m.Close()
	want := nestRun(t, gp, Config{Workers: 1}, true)
	pl, err := m.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		bindGen(m, gp)
		if err := pl.Execute(m, nil); err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		for _, r := range []bytecode.RegID{grid, sum} {
			w, g := want.regs.get(r), m.regs.get(r)
			for i := 0; i < w.Len(); i++ {
				if w.Get(i) != g.Get(i) {
					t.Errorf("%s: a%d[%d] = %v, want %v", what, r, i, g.Get(i), w.Get(i))
					return
				}
			}
		}
	}
	for _, o := range others {
		if _, err := m.Compile(o); err != nil {
			t.Fatal(err)
		}
	}
	check("after compiling B")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 10 {
			check("while compiling B")
		}
	}()
	for range 10 {
		for _, o := range others {
			m.CompileValidated(o)
		}
	}
	wg.Wait()
}
