// Benchmarks regenerating the paper's evaluation (experiments E1–E7,
// ARCHITECTURE.md §6): run `go test -bench=. -benchmem` and compare the
// ns/op ratios against the table shapes `go run ./cmd/bhbench` prints.
// Absolute numbers are machine-dependent; the *shape* — who wins, by what
// factor — is the reproduction target.
package bohrium_test

import (
	"fmt"
	"runtime"
	"testing"

	"bohrium"
	"bohrium/internal/bench"
	"bohrium/internal/bytecode"
	"bohrium/internal/chains"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

const benchN = 1 << 20

// runProg executes one program b.N times on a fused multicore machine.
func runProg(b *testing.B, prog *bytecode.Program, bind func(*vm.Machine)) {
	b.Helper()
	if err := prog.Validate(); err != nil {
		b.Fatal(err)
	}
	machine := vm.New(vm.Config{Fusion: true})
	defer machine.Close()
	if bind != nil {
		bind(machine)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := machine.CompileValidated(prog).Execute(machine, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// optimizeWith applies a pipeline, failing the benchmark on error.
func optimizeWith(b *testing.B, pl *rewrite.Pipeline, prog *bytecode.Program) *bytecode.Program {
	b.Helper()
	out, _, err := pl.Optimize(prog)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkE1AddMerge — paper Listings 1–3: k repeated "a += 1" sweeps,
// raw versus constant-merged. Expect optimized time roughly k/1 lower.
func BenchmarkE1AddMerge(b *testing.B) {
	for _, k := range []int{3, 8, 16} {
		prog := bench.AddMergeProgram(k, benchN, tensor.Float64)
		b.Run(fmt.Sprintf("k=%d/raw", k), func(b *testing.B) {
			runProg(b, prog.Clone(), nil)
		})
		b.Run(fmt.Sprintf("k=%d/merged", k), func(b *testing.B) {
			pl := rewrite.NewPipeline(rewrite.CanonicalizeRule{}, rewrite.AddMergeRule{})
			runProg(b, optimizeWith(b, pl, prog), nil)
		})
	}
}

// BenchmarkE2PowerChain — paper Listings 4–5: x¹⁰ as one BH_POWER versus
// the three expansion strategies (9, 5, and 4 multiplies).
func BenchmarkE2PowerChain(b *testing.B) {
	prog := bench.PowerProgram(10, benchN)
	b.Run("bh_power", func(b *testing.B) {
		runProg(b, prog.Clone(), nil)
	})
	for _, st := range []struct {
		name  string
		strat chains.Strategy
	}{
		{"naive9", chains.StrategyNaive},
		{"paper5", chains.StrategySquareIncrement},
		{"binary4", chains.StrategyBinary},
	} {
		b.Run(st.name, func(b *testing.B) {
			pl := rewrite.Build(rewrite.Options{
				PowerExpand: true, PowerStrategy: st.strat, PowerNoCostModel: true,
			})
			runProg(b, optimizeWith(b, pl, prog), nil)
		})
	}
}

// BenchmarkE3PowerSweep — conclusion claim: exponent sweep, BH_POWER vs
// expanded chains; the naive strategy crosses over, binary never does.
func BenchmarkE3PowerSweep(b *testing.B) {
	for _, n := range []int64{4, 16, 32, 64} {
		prog := bench.PowerProgram(n, benchN)
		b.Run(fmt.Sprintf("n=%d/power", n), func(b *testing.B) {
			runProg(b, prog.Clone(), nil)
		})
		b.Run(fmt.Sprintf("n=%d/naive", n), func(b *testing.B) {
			pl := rewrite.Build(rewrite.Options{
				PowerExpand: true, PowerStrategy: chains.StrategyNaive, PowerNoCostModel: true,
			})
			runProg(b, optimizeWith(b, pl, prog), nil)
		})
		b.Run(fmt.Sprintf("n=%d/binary", n), func(b *testing.B) {
			pl := rewrite.Build(rewrite.Options{
				PowerExpand: true, PowerStrategy: chains.StrategyBinary, PowerNoCostModel: true,
			})
			runProg(b, optimizeWith(b, pl, prog), nil)
		})
	}
}

// BenchmarkE4Solve — equation (2): x = A⁻¹·B versus the rewritten
// BH_SOLVE across system sizes.
func BenchmarkE4Solve(b *testing.B) {
	for _, m := range []int{32, 64, 128, 256} {
		prog := bench.SolveProgram(m)
		bind := solveBinder(m)
		b.Run(fmt.Sprintf("m=%d/inverse", m), func(b *testing.B) {
			runProg(b, prog.Clone(), bind)
		})
		b.Run(fmt.Sprintf("m=%d/solve", m), func(b *testing.B) {
			runProg(b, optimizeWith(b, rewrite.Default(), prog), bind)
		})
	}
}

func solveBinder(m int) func(*vm.Machine) {
	a := tensor.MustNew(tensor.Float64, tensor.MustShape(m, m))
	a.FillRandom(42, -1, 1)
	for i := 0; i < m; i++ {
		a.SetAt(float64(m)+2, i, i)
	}
	rhs := tensor.MustNew(tensor.Float64, tensor.MustShape(m))
	rhs.FillRandom(43, -1, 1)
	return func(machine *vm.Machine) {
		machine.Bind(0, a)
		machine.Bind(2, rhs)
	}
}

// BenchmarkE5Workloads — end-to-end scientific kernels through the public
// API, optimizer+fusion off versus fully on.
func BenchmarkE5Workloads(b *testing.B) {
	off := rewrite.Options{}
	configs := []struct {
		name string
		cfg  *bohrium.Config
	}{
		{"baseline", &bohrium.Config{Optimizer: &off, DisableFusion: true}},
		{"optimized", nil},
	}
	type wl struct {
		name string
		run  func(*bohrium.Context) (float64, error)
	}
	workloads := []wl{
		{"heat2d", func(c *bohrium.Context) (float64, error) { return bench.Heat2D(c, 96, 20) }},
		{"blackscholes", func(c *bohrium.Context) (float64, error) { return bench.BlackScholes(c, benchN/4) }},
		{"leibnizpi", func(c *bohrium.Context) (float64, error) { return bench.LeibnizPi(c, benchN/4) }},
		{"montecarlopi", func(c *bohrium.Context) (float64, error) { return bench.MonteCarloPi(c, benchN/4) }},
	}
	for _, w := range workloads {
		for _, cfg := range configs {
			b.Run(w.name+"/"+cfg.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ctx := bohrium.NewContext(cfg.cfg)
					if _, err := w.run(ctx); err != nil {
						ctx.Close()
						b.Fatal(err)
					}
					ctx.Close()
				}
			})
		}
	}
}

// BenchmarkE6Fusion — ablation D4: the identical byte-code stream executed
// with and without sweep fusion.
func BenchmarkE6Fusion(b *testing.B) {
	prog := bench.AddMergeProgram(8, benchN, tensor.Float64)
	if err := prog.Validate(); err != nil {
		b.Fatal(err)
	}
	for _, fusion := range []bool{false, true} {
		name := "off"
		if fusion {
			name = "on"
		}
		b.Run("fusion="+name, func(b *testing.B) {
			machine := vm.New(vm.Config{Fusion: fusion})
			defer machine.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := machine.CompileValidated(prog).Execute(machine, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6GapTolerance — ablation D1: optimizing the noisy stream with
// adjacent-only versus interference-aware matching (rewrite cost itself is
// negligible; the executed program differs).
func BenchmarkE6GapTolerance(b *testing.B) {
	prog := bench.AddMergeNoisyProgram(8, benchN, tensor.Int64)
	b.Run("adjacent-only", func(b *testing.B) {
		pl := rewrite.NewPipeline(rewrite.AddMergeRule{AdjacentOnly: true})
		runProg(b, optimizeWith(b, pl, prog), nil)
	})
	b.Run("gap-tolerant", func(b *testing.B) {
		pl := rewrite.NewPipeline(rewrite.AddMergeRule{})
		runProg(b, optimizeWith(b, pl, prog), nil)
	})
}

// sweepWorkerCounts returns the worker widths the reduce/scan benchmarks
// compare: serial, two workers, and the full machine (deduplicated).
func sweepWorkerCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	out := counts[:0]
	seen := map[int]bool{}
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// benchSweep fills a0 with random data once, then times the sweep program
// b.N times on a machine of the given worker width.
func benchSweep(b *testing.B, workers int, fillSrc, sweepSrc string) {
	b.Helper()
	fill, err := bytecode.Parse(fillSrc)
	if err != nil {
		b.Fatal(err)
	}
	sweep, err := bytecode.Parse(sweepSrc)
	if err != nil {
		b.Fatal(err)
	}
	if err := sweep.Validate(); err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.Config{Workers: workers})
	defer m.Close()
	if err := m.Run(fill); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.CompileValidated(sweep).Execute(m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduce races the parallel reduction strategies against the
// 1-worker machine on sweeps far above DefaultParallelThreshold: a full
// SumAll (two-phase axis chunking) and a row-wise reduction (output-sweep
// split). The ns/op ratio between workers=1 and workers=N is the
// reduction engine's scaling figure.
func BenchmarkReduce(b *testing.B) {
	const n = 1 << 22 // 4 Mi elements; rows case reads it as 2048×2048
	fill := fmt.Sprintf(".reg a0 float64 %d\nBH_RANDOM a0 3 0\nBH_SYNC a0\n", n)
	cases := []struct{ name, src string }{
		{"sumall", fmt.Sprintf(
			".reg a0 float64 %d\n.reg a1 float64 1\n.in a0\nBH_ADD_REDUCE a1 [0:1:1] a0 [0:%d:1] axis=0\nBH_SYNC a1\n", n, n)},
		{"rows", fmt.Sprintf(
			".reg a0 float64 %d\n.reg a1 float64 2048\n.in a0\nBH_ADD_REDUCE a1 [0:2048:1] a0 [0:%d:2048][0:2048:1] axis=1\nBH_SYNC a1\n", n, n)},
	}
	for _, tc := range cases {
		for _, w := range sweepWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(b *testing.B) {
				benchSweep(b, w, fill, tc.src)
			})
		}
	}
}

// BenchmarkScan races the three-pass chunked scan (1-D cumsum) and the
// line-split scan (row-wise cumsum) against the 1-worker machine.
func BenchmarkScan(b *testing.B) {
	const n = 1 << 22
	fill := fmt.Sprintf(".reg a0 float64 %d\nBH_RANDOM a0 5 0\nBH_SYNC a0\n", n)
	cases := []struct{ name, src string }{
		{"cumsum", fmt.Sprintf(
			".reg a0 float64 %d\n.reg a1 float64 %d\n.in a0\nBH_ADD_ACCUMULATE a1 a0 axis=0\nBH_SYNC a1\n", n, n)},
		{"rows", fmt.Sprintf(
			".reg a0 float64 %d\n.reg a1 float64 %d\n.in a0\nBH_ADD_ACCUMULATE a1 [0:%d:2048][0:2048:1] a0 [0:%d:2048][0:2048:1] axis=1\nBH_SYNC a1\n", n, n, n, n)},
	}
	for _, tc := range cases {
		for _, w := range sweepWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(b *testing.B) {
				benchSweep(b, w, fill, tc.src)
			})
		}
	}
}

// BenchmarkStencilSweep — one Jacobi sweep of a 2-D heat stencil on a
// 1024² float64 grid per iteration, recorded and flushed through the
// front end: a 5-instruction strided chain over the interior windows and
// the BH_IDENTITY write-back as its lagged closing store — one sweep, the
// temporary in row scratch — served from the plan cache after the first
// flush. The loop nest's row-sliced execution is what this times (the same
// batch as the benchmark/ stencil-sweep workload; internal/vm's
// BenchmarkNestStencil times the same plan without the front end).
func BenchmarkStencilSweep(b *testing.B) {
	const n = 1024
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()
	values := make([]float64, n*n)
	for i := range values {
		values[i] = float64(i % 101)
	}
	grid, err := ctx.FromSlice(values, n, n)
	if err != nil {
		b.Fatal(err)
	}
	interior := func(r0, r1, c0, c1 int) *bohrium.Array {
		return grid.MustSlice(0, r0, r1, 1).MustSlice(1, c0, c1, 1)
	}
	center, north, south := interior(1, n-1, 1, n-1), interior(0, n-2, 1, n-1), interior(2, n, 1, n-1)
	west, east := interior(1, n-1, 0, n-2), interior(1, n-1, 2, n)
	sweep := func() {
		next := center.Plus(north)
		next.Add(south).Add(west).Add(east).MulC(0.2)
		center.Assign(next)
		next.Free()
		if err := ctx.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	sweep()                   // compile and cache the plan
	b.SetBytes(2 * 8 * n * n) // compulsory traffic: the grid read and written once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkE7DTypeFusion — the dtype-generalized fused engine with
// reduction epilogues: Black-Scholes chains (float32/float64) and integer
// hash-folds (int32/int64) ending in a full reduction, fused versus
// unfused. The fused runs fold the reduction into the producer sweep
// (Stats.FusedReductions) and never materialize the dead temporaries.
func BenchmarkE7DTypeFusion(b *testing.B) {
	workloads := []struct {
		name string
		prog *bytecode.Program
	}{
		{"black-scholes-float64", bench.BlackScholesProgram(tensor.Float64, benchN)},
		{"black-scholes-float32", bench.BlackScholesProgram(tensor.Float32, benchN)},
		{"checksum-int64", bench.ChecksumProgram(tensor.Int64, benchN)},
		{"checksum-int32", bench.ChecksumProgram(tensor.Int32, benchN)},
	}
	for _, w := range workloads {
		b.Run(w.name+"/unfused", func(b *testing.B) {
			if err := w.prog.Validate(); err != nil {
				b.Fatal(err)
			}
			m := vm.New(vm.Config{Fusion: false})
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.CompileValidated(w.prog).Execute(m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/fused", func(b *testing.B) {
			runProg(b, w.prog.Clone(), nil)
		})
	}
}

// BenchmarkOptimizerOverhead measures the rewrite pipeline itself — the
// cost the runtime pays per flush before execution.
func BenchmarkOptimizerOverhead(b *testing.B) {
	progs := map[string]*bytecode.Program{
		"listing2":  bench.AddMergeProgram(3, 10, tensor.Float64),
		"noisy-k16": bench.AddMergeNoisyProgram(16, 10, tensor.Int64),
		"power-x10": bench.PowerProgram(10, 10),
		"solve-m8":  bench.SolveProgram(8),
	}
	for name, prog := range progs {
		b.Run(name, func(b *testing.B) {
			pl := rewrite.Default()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Optimize(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCachedFlush times one plan-cache hit per dispatch-small batch
// shape on a warm default Context; -benchmem prints what each cached
// Flush allocates (TestCachedFlushAllocs pins the count).
func BenchmarkCachedFlush(b *testing.B) {
	d := newDispatchSmall(b, 2048)
	for _, bc := range []struct {
		name  string
		flush func() error
	}{{"jacobi", d.jacobi}, {"jacobi-alternating", d.jacobiAlternating}, {"power-sum", d.powerSum}} {
		b.Run(bc.name, func(b *testing.B) {
			for range 3 {
				if err := bc.flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
