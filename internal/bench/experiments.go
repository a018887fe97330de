package bench

import (
	"bohrium"
	"bohrium/internal/bytecode"
	"bohrium/internal/chains"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
	"fmt"
	"math"
)

// Scale tunes experiment sizes: 1 is the quick CI profile, larger values
// grow the vectors (experiments report the same qualitative shape at any
// scale — that is the point of the reproduction).
type Scale struct {
	VectorN  int // elementwise sweep length (default 1 << 20)
	SolveMax int // largest linear system (default 256)
	// Repeats is how many times each variant runs (default 7); rows
	// report the median run and the median absolute deviation. One
	// repeat is a single sample with zero deviation.
	Repeats int
}

func (s Scale) withDefaults() Scale {
	if s.VectorN == 0 {
		s.VectorN = 1 << 20
	}
	if s.SolveMax == 0 {
		s.SolveMax = 256
	}
	if s.Repeats == 0 {
		s.Repeats = 7
	}
	return s
}

// foldOnlyPipeline reproduces exactly the paper's Listing 2→3 step:
// constant merging without the further identity-fold collapse.
func foldOnlyPipeline() *rewrite.Pipeline {
	return rewrite.NewPipeline(rewrite.CanonicalizeRule{}, rewrite.AddMergeRule{}, rewrite.MulMergeRule{})
}

// E1AddMerge reproduces Listings 1–3 and the conclusion's "Bohrium already
// supports merging integer addition": k repeated adds collapse to one, and
// runtime drops with the byte-code count.
func E1AddMerge(s Scale) ([]Row, error) {
	s = s.withDefaults()
	var rows []Row
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Int64} {
		for _, k := range []int{2, 3, 8, 16} {
			prog := AddMergeProgram(k, s.VectorN, dt)
			row, err := comparePrograms("E1", "add-merge("+dt.String()+")",
				fmt.Sprintf("k=%d N=%d", k, s.VectorN), prog, foldOnlyPipeline(), s, nil)
			if err != nil {
				return nil, err
			}
			row.Note = fmt.Sprintf("%d adds -> 1", k)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// E2PowerChain reproduces Listings 4–5: x¹⁰ as BH_POWER (baseline) versus
// the three expansion strategies; byte-code counts must be exactly the
// listings' 9 (naive) and 5 (paper), plus our 4 (binary).
func E2PowerChain(s Scale) ([]Row, error) {
	s = s.withDefaults()
	strategies := []struct {
		strat chains.Strategy
		label string
	}{
		{chains.StrategyNaive, "naive (Listing 4)"},
		{chains.StrategySquareIncrement, "paper (Listing 5)"},
		{chains.StrategyBinary, "binary (ours)"},
	}
	var rows []Row
	for _, st := range strategies {
		prog := PowerProgram(10, s.VectorN)
		pl := rewrite.Build(rewrite.Options{
			PowerExpand:      true,
			PowerStrategy:    st.strat,
			PowerNoCostModel: true,
		})
		row, err := comparePrograms("E2", "power-x10", fmt.Sprintf("N=%d", s.VectorN), prog, pl, s, nil)
		if err != nil {
			return nil, err
		}
		chain, err := chains.Generate(st.strat, 10)
		if err != nil {
			return nil, err
		}
		row.Note = fmt.Sprintf("%s: %d multiplies", st.label, chain.MultiplyCount())
		rows = append(rows, row)
	}
	return rows, nil
}

// E3PowerSweep reproduces the conclusion claim "for values close to a
// power of 2, multiplying multiple times is faster than an actual
// BH_POWER": sweep the exponent and race BH_POWER against naive and
// binary chains. Note records the chain's multiply count; speedup says
// which side won.
func E3PowerSweep(s Scale) ([]Row, error) {
	s = s.withDefaults()
	exps := []int64{2, 3, 4, 8, 15, 16, 17, 24, 31, 32, 33, 48, 64}
	var rows []Row
	for _, strat := range []chains.Strategy{chains.StrategyNaive, chains.StrategyBinary} {
		for _, n := range exps {
			prog := PowerProgram(n, s.VectorN)
			pl := rewrite.Build(rewrite.Options{
				PowerExpand:      true,
				PowerStrategy:    strat,
				PowerNoCostModel: true,
			})
			row, err := comparePrograms("E3", "power-sweep-"+strat.String(),
				fmt.Sprintf("n=%d N=%d", n, s.VectorN), prog, pl, s, nil)
			if err != nil {
				return nil, err
			}
			chain, err := chains.Generate(strat, int(n))
			if err != nil {
				return nil, err
			}
			row.Note = fmt.Sprintf("%d muls", chain.MultiplyCount())
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// E4Solve reproduces equation (2): x = A⁻¹·B (baseline) against the
// rewritten BH_SOLVE across system sizes.
func E4Solve(s Scale) ([]Row, error) {
	s = s.withDefaults()
	var rows []Row
	for m := 16; m <= s.SolveMax; m *= 2 {
		prog := SolveProgram(m)
		row, err := comparePrograms("E4", "inverse-vs-solve",
			fmt.Sprintf("m=%d", m), prog, rewrite.Default(), s, bindSolveInputs(m))
		if err != nil {
			return nil, err
		}
		row.Note = "INVERSE+MATMUL -> SOLVE"
		rows = append(rows, row)
	}
	return rows, nil
}

// E5Workloads runs the end-to-end scientific kernels through the public
// API with the optimizer+fusion off versus fully on.
func E5Workloads(s Scale) ([]Row, error) {
	s = s.withDefaults()
	type workload struct {
		name  string
		param string
		run   func(*bohrium.Context) (float64, error)
		check func(float64) bool
	}
	n := s.VectorN
	grid := 96
	iters := 30
	workloads := []workload{
		{
			name: "heat-2d", param: fmt.Sprintf("grid=%dx%d iters=%d", grid, grid, iters),
			run:   func(c *bohrium.Context) (float64, error) { return Heat2D(c, grid, iters) },
			check: func(v float64) bool { return v >= 0 && v <= 100 },
		},
		{
			name: "black-scholes", param: fmt.Sprintf("N=%d", n),
			run:   func(c *bohrium.Context) (float64, error) { return BlackScholes(c, n) },
			check: func(v float64) bool { return v > 0 && v < 60 },
		},
		{
			name: "leibniz-pi", param: fmt.Sprintf("N=%d", n),
			run:   func(c *bohrium.Context) (float64, error) { return LeibnizPi(c, n) },
			check: func(v float64) bool { return math.Abs(v-math.Pi) < 1e-3 },
		},
		{
			name: "montecarlo-pi", param: fmt.Sprintf("N=%d", n),
			run:   func(c *bohrium.Context) (float64, error) { return MonteCarloPi(c, n) },
			check: func(v float64) bool { return math.Abs(v-math.Pi) < 0.05 },
		},
	}
	off := &rewrite.Options{} // all rewrites disabled
	var rows []Row
	for _, w := range workloads {
		var val float64
		var st vm.Stats
		timeRun := func(cfg bohrium.Config) (timing, error) {
			return measure(s.Repeats, func() error {
				ctx := bohrium.NewContext(&cfg)
				defer ctx.Close()
				v, err := w.run(ctx)
				if err == nil {
					st, err = ctx.Stats()
				}
				val = v
				return err
			})
		}
		base, err := timeRun(bohrium.Config{Optimizer: off, DisableFusion: true})
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", w.name, err)
		}
		baseVal := val
		opt, err := timeRun(bohrium.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s optimized: %w", w.name, err)
		}
		note := fmt.Sprintf("value=%.5g", val)
		if !w.check(val) || math.Abs(val-baseVal) > 1e-6*(1+math.Abs(baseVal)) {
			note = fmt.Sprintf("VALUE MISMATCH base=%v opt=%v", baseVal, val)
		}
		row := Row{
			Experiment: "E5", Workload: w.name, Params: w.param,
			PoolHits: st.PoolHits, BuffersAlloc: st.BuffersAllocated,
			FusedReductions: st.FusedReductions,
			PlanHits:        st.PlanHits, PlanMisses: st.PlanMisses,
			Note: note,
		}
		row.timed(base, opt)
		rows = append(rows, row)
	}
	return rows, nil
}

// E6Ablations quantifies the design decisions D1–D4 behind the rewrite
// engine (ARCHITECTURE.md §6): gap-tolerant matching, the power cost
// model, the inverse-to-solve liveness gate, and rewrite-then-fuse.
func E6Ablations(s Scale) ([]Row, error) {
	s = s.withDefaults()
	var rows []Row

	// D1 — interference-aware gap tolerance: on the noisy stream, the
	// adjacent-only matcher (the paper's literal listings) merges
	// nothing; the gap-tolerant matcher collapses all k adds.
	noisy := AddMergeNoisyProgram(8, s.VectorN, tensor.Int64)
	adjacent := rewrite.NewPipeline(rewrite.AddMergeRule{AdjacentOnly: true})
	tolerant := rewrite.NewPipeline(rewrite.AddMergeRule{})
	adjOut, adjRep, err := adjacent.Optimize(noisy)
	if err != nil {
		return nil, err
	}
	tolOut, tolRep, err := tolerant.Optimize(noisy)
	if err != nil {
		return nil, err
	}
	adjTime, _, err := timeProgram(adjOut, s, fused, nil)
	if err != nil {
		return nil, err
	}
	tolTime, _, err := timeProgram(tolOut, s, fused, nil)
	if err != nil {
		return nil, err
	}
	d1 := Row{
		Experiment: "E6/D1", Workload: "gap-tolerance", Params: "noisy stream k=8",
		BytecodesBefore: adjRep.After.Instructions, BytecodesAfter: tolRep.After.Instructions,
		Note: fmt.Sprintf("adjacent-only merged %d, gap-tolerant merged %d",
			adjRep.TotalApplied(), tolRep.TotalApplied()),
	}
	d1.timed(adjTime, tolTime)
	rows = append(rows, d1)

	// D2 — cost model: naive expansion of x^60 is a loss; the guard keeps
	// BH_POWER.
	guarded := rewrite.Build(rewrite.Options{PowerExpand: true, PowerStrategy: chains.StrategyNaive})
	unguarded := rewrite.Build(rewrite.Options{PowerExpand: true, PowerStrategy: chains.StrategyNaive, PowerNoCostModel: true})
	row, err := comparePrograms("E6/D2", "cost-model", fmt.Sprintf("x^60 N=%d", s.VectorN),
		PowerProgram(60, s.VectorN), unguarded, s, nil)
	if err != nil {
		return nil, err
	}
	_, guardRep, err := guarded.Optimize(PowerProgram(60, s.VectorN))
	if err != nil {
		return nil, err
	}
	row.Note = fmt.Sprintf("ungated naive chain: %d bc; cost model keeps POWER (%d bc)",
		row.BytecodesAfter, guardRep.After.Instructions)
	rows = append(rows, row)

	// D3 — liveness gate: with the inverse observed afterwards, the
	// rewrite must not fire; disabling the gate breaks the program and
	// pipeline validation catches it.
	live := SolveProgram(32)
	live.EmitSync(bytecode.Reg(1, tensor.NewView(tensor.MustShape(32, 32)))) // observe A⁻¹
	_, liveRep, err := rewrite.NewPipeline(rewrite.SolveRewriteRule{}).Optimize(live)
	if err != nil {
		return nil, err
	}
	unsound := rewrite.NewPipeline(rewrite.SolveRewriteRule{DisableLivenessCheck: true})
	_, _, unsoundErr := unsound.Optimize(live)
	note := "gate blocked rewrite (A⁻¹ live)"
	if liveRep.Applied["inverse-to-solve"] != 0 {
		note = "GATE FAILED: rewrite fired on live inverse"
	}
	if unsoundErr == nil {
		note += "; ABLATION UNEXPECTEDLY VALID"
	} else {
		note += "; ungated rewrite rejected by validator"
	}
	rows = append(rows, Row{
		Experiment: "E6/D3", Workload: "liveness-gate", Params: "m=32, A⁻¹ synced",
		BytecodesBefore: liveRep.Before.Instructions, BytecodesAfter: liveRep.After.Instructions,
		Speedup: 1, Note: note,
	})

	// D4 — rewrite-then-fuse: the unoptimized Listing-2 stream, executed
	// without and with sweep fusion.
	prog := AddMergeProgram(8, s.VectorN, tensor.Float64)
	noFuse, fuse, _, err := timeFusion(prog, s)
	if err != nil {
		return nil, err
	}
	d4 := Row{
		Experiment: "E6/D4", Workload: "fusion", Params: fmt.Sprintf("k=8 N=%d", s.VectorN),
		BytecodesBefore: prog.Len(), BytecodesAfter: prog.Len(),
		Note: "same byte-code, fused sweeps",
	}
	d4.timed(noFuse, fuse)
	rows = append(rows, d4)
	return rows, nil
}

// E7DTypeFusion measures the dtype-generalized fused engine: the same
// byte-code executed with fusion off versus on, across float and integer
// dtypes, each workload ending in a reduction the fused engine folds into
// the producer sweep. No rewrite pipeline runs — the experiment isolates
// the execution engine, so bc-before equals bc-after; the fredux column
// and the per-dtype note show the epilogue firing.
func E7DTypeFusion(s Scale) ([]Row, error) {
	s = s.withDefaults()
	type wl struct {
		name string
		prog *bytecode.Program
	}
	var workloads []wl
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		workloads = append(workloads, wl{"black-scholes-" + dt.String(), BlackScholesProgram(dt, s.VectorN)})
	}
	for _, dt := range []tensor.DType{tensor.Int64, tensor.Int32} {
		workloads = append(workloads, wl{"checksum-" + dt.String(), ChecksumProgram(dt, s.VectorN)})
	}
	var rows []Row
	for _, w := range workloads {
		if err := w.prog.Validate(); err != nil {
			return nil, fmt.Errorf("bench: invalid workload %s: %w", w.name, err)
		}
		base, opt, st, err := timeFusion(w.prog, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		row := Row{
			Experiment: "E7", Workload: w.name, Params: fmt.Sprintf("N=%d", s.VectorN),
			BytecodesBefore: w.prog.Len(), BytecodesAfter: w.prog.Len(),
			PoolHits: st.PoolHits, BuffersAlloc: st.BuffersAllocated,
			FusedReductions: st.FusedReductions,
			Note:            "fused " + st.FusedByDType.String(),
		}
		row.timed(base, opt)
		rows = append(rows, row)
	}
	return rows, nil
}

// All runs every experiment and returns the rows grouped in order.
func All(s Scale) ([]Row, error) {
	var rows []Row
	for _, fn := range []func(Scale) ([]Row, error){
		E1AddMerge, E2PowerChain, E3PowerSweep, E4Solve, E5Workloads, E6Ablations, E7DTypeFusion,
	} {
		r, err := fn(s)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}
