package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Schema names the BENCH_*.json document layout JSON writes and
// CheckSchema accepts.
const Schema = "bohrium-bench/v2"

// Row is one line of an experiment table.
type Row struct {
	Experiment string
	Workload   string
	Params     string
	// BytecodesBefore/After count instructions entering/leaving the
	// optimizer (the paper's unit of work).
	BytecodesBefore, BytecodesAfter int
	// Baseline and Optimized are the median wall-clock times of the two
	// variants over Scale.Repeats runs; BaselineMAD and OptimizedMAD are
	// the median absolute deviations of those runs (zero for one run).
	Baseline, Optimized       time.Duration
	BaselineMAD, OptimizedMAD time.Duration
	// Speedup = Baseline / Optimized, the ratio of the medians.
	Speedup float64
	// PoolHits and BuffersAlloc are the VM's buffer-recycling counters for
	// one optimized run: how many register materializations reused a freed
	// buffer versus allocating fresh.
	PoolHits, BuffersAlloc int
	// FusedReductions counts reductions the optimized run folded into
	// their producer sweep (no separate reduction pass).
	FusedReductions int
	// PlanHits and PlanMisses are the plan-cache counters of the
	// optimized run (E5): hits re-executed a cached compilation, misses
	// paid the full pipeline.
	PlanHits, PlanMisses int
	// Note carries per-row context ("chain=5 muls", "rewrite blocked").
	Note string
}

// Table formats rows as an aligned text table, the output cmd/bhbench
// prints.
func Table(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-22s %-26s %9s %9s %12s %9s %12s %9s %8s %9s %6s %9s  %s\n",
		"exp", "workload", "params", "bc-before", "bc-after",
		"baseline", "±mad", "optimized", "±mad", "speedup", "pool", "fredux", "plan", "note")
	for _, r := range rows {
		// baseline/optimized print the median run and its median absolute
		// deviation. pool prints hits/materializations for the optimized
		// run: 3/5 means five register buffers were needed and three were
		// recycled. fredux counts reductions folded into their producer
		// sweep. plan prints plan-cache hits/lookups.
		fmt.Fprintf(&b, "%-5s %-22s %-26s %9d %9d %12s %9s %12s %9s %7.2fx %9s %6d %9s  %s\n",
			r.Experiment, r.Workload, r.Params, r.BytecodesBefore, r.BytecodesAfter,
			round(r.Baseline), round(r.BaselineMAD), round(r.Optimized), round(r.OptimizedMAD), r.Speedup,
			fmt.Sprintf("%d/%d", r.PoolHits, r.PoolHits+r.BuffersAlloc), r.FusedReductions,
			fmt.Sprintf("%d/%d", r.PlanHits, r.PlanHits+r.PlanMisses), r.Note)
	}
	return b.String()
}

// JSON renders rows as the machine-readable BENCH_*.json document: a
// top-level object {"schema": Schema, "rows": [...]} where each row
// mirrors the text table (durations in nanoseconds). Every row's backend
// is "inprocess", the one engine: the key stays so that v2 documents keep
// their shape.
func JSON(rows []Row) ([]byte, error) {
	type jsonRow struct {
		Experiment      string  `json:"experiment"`
		Workload        string  `json:"workload"`
		Params          string  `json:"params"`
		Backend         string  `json:"backend"`
		BytecodesBefore int     `json:"bc_before"`
		BytecodesAfter  int     `json:"bc_after"`
		BaselineNs      int64   `json:"baseline_ns"`
		BaselineMADNs   int64   `json:"baseline_mad_ns"`
		OptimizedNs     int64   `json:"optimized_ns"`
		OptimizedMADNs  int64   `json:"optimized_mad_ns"`
		Speedup         float64 `json:"speedup"`
		PoolHits        int     `json:"pool_hits"`
		BuffersAlloc    int     `json:"buffers_alloc"`
		FusedReductions int     `json:"fused_reductions"`
		PlanHits        int     `json:"plan_hits"`
		PlanMisses      int     `json:"plan_misses"`
		Note            string  `json:"note"`
	}
	doc := struct {
		Schema string    `json:"schema"`
		Rows   []jsonRow `json:"rows"`
	}{Schema: Schema}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, jsonRow{
			Experiment:      r.Experiment,
			Workload:        r.Workload,
			Params:          r.Params,
			Backend:         backend.DefaultName,
			BytecodesBefore: r.BytecodesBefore,
			BytecodesAfter:  r.BytecodesAfter,
			BaselineNs:      r.Baseline.Nanoseconds(),
			BaselineMADNs:   r.BaselineMAD.Nanoseconds(),
			OptimizedNs:     r.Optimized.Nanoseconds(),
			OptimizedMADNs:  r.OptimizedMAD.Nanoseconds(),
			Speedup:         r.Speedup,
			PoolHits:        r.PoolHits,
			BuffersAlloc:    r.BuffersAlloc,
			FusedReductions: r.FusedReductions,
			PlanHits:        r.PlanHits,
			PlanMisses:      r.PlanMisses,
			Note:            r.Note,
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}

func round(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// timing is the median and median absolute deviation of repeated runs.
type timing struct{ median, mad time.Duration }

// measure times fn repeats times and summarizes the runs.
func measure(repeats int, fn func() error) (timing, error) {
	runs := make([]time.Duration, repeats)
	for i := range runs {
		start := time.Now()
		if err := fn(); err != nil {
			return timing{}, err
		}
		runs[i] = time.Since(start)
	}
	return summarize(runs), nil
}

// summarize returns the median of runs and their median absolute
// deviation, reusing runs as scratch. The median, unlike the best run,
// does not flip with one lucky sample, and the MAD says how far apart
// the runs were.
func summarize(runs []time.Duration) timing {
	med := median(runs)
	for i, d := range runs {
		runs[i] = max(d-med, med-d)
	}
	return timing{med, median(runs)}
}

// median sorts ds in place and returns its middle value (the mean of the
// two middle values for an even count).
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	n := len(ds)
	return (ds[(n-1)/2] + ds[n/2]) / 2
}

// timed sets the row's timing columns from the two variants' runs.
func (r *Row) timed(base, opt timing) {
	r.Baseline, r.BaselineMAD = base.median, base.mad
	r.Optimized, r.OptimizedMAD = opt.median, opt.mad
	r.Speedup = float64(base.median) / float64(opt.median)
}

// fused is the VM configuration every program-level row runs with unless
// it ablates fusion itself.
var fused = vm.Config{Fusion: true}

// runProgram executes prog under cfg on a fresh private engine,
// optionally binding the E4 linear-system inputs first, and reports the
// execution counters. prog must be valid: Backend.Compile does not check.
func runProgram(prog *bytecode.Program, cfg vm.Config, bind func(*backend.Backend)) (vm.Stats, error) {
	eng := vm.NewEngine(vm.EngineConfig{Workers: cfg.Workers})
	defer eng.Close()
	b := backend.New(eng, backend.Config{VM: cfg})
	defer b.Close()
	if bind != nil {
		bind(b)
	}
	pl, err := b.Compile(prog)
	if err != nil {
		return b.Stats(), err
	}
	err = b.Execute(pl)
	return b.Stats(), err
}

// timeProgram measures prog under cfg and returns the counters of the
// last run.
func timeProgram(prog *bytecode.Program, s Scale, cfg vm.Config, bind func(*backend.Backend)) (timing, vm.Stats, error) {
	var st vm.Stats
	t, err := measure(s.Repeats, func() error {
		var err error
		st, err = runProgram(prog.Clone(), cfg, bind)
		return err
	})
	return t, st, err
}

// timeFusion times prog with sweep fusion off (the baseline) and on, and
// returns the fused run's counters.
func timeFusion(prog *bytecode.Program, s Scale) (base, opt timing, st vm.Stats, err error) {
	if base, _, err = timeProgram(prog, s, vm.Config{}, nil); err != nil {
		return
	}
	opt, st, err = timeProgram(prog, s, fused, nil)
	return
}

// comparePrograms times the raw program against its optimized form and
// fills a Row. Both versions are validated once up front.
func comparePrograms(exp, workload, params string, prog *bytecode.Program,
	pl *rewrite.Pipeline, s Scale, bind func(*backend.Backend)) (Row, error) {

	if err := prog.Validate(); err != nil {
		return Row{}, fmt.Errorf("bench: invalid workload: %w", err)
	}
	optimized, report, err := pl.Optimize(prog)
	if err != nil {
		return Row{}, fmt.Errorf("bench: optimize: %w", err)
	}
	base, _, err := timeProgram(prog, s, fused, bind)
	if err != nil {
		return Row{}, err
	}
	opt, st, err := timeProgram(optimized, s, fused, bind)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Experiment:      exp,
		Workload:        workload,
		Params:          params,
		BytecodesBefore: report.Before.Instructions,
		BytecodesAfter:  report.After.Instructions,
		PoolHits:        st.PoolHits,
		BuffersAlloc:    st.BuffersAllocated,
		FusedReductions: st.FusedReductions,
	}
	row.timed(base, opt)
	return row, nil
}

// bindSolveInputs binds deterministic diagonally dominant data to the E4
// solve program's input registers (a0 = A, a2 = B).
func bindSolveInputs(m int) func(*backend.Backend) {
	return func(b *backend.Backend) {
		a := tensor.MustNew(tensor.Float64, tensor.MustShape(m, m))
		a.FillRandom(42, -1, 1)
		for i := 0; i < m; i++ {
			a.SetAt(float64(m)+2, i, i) // dominant diagonal
		}
		rhs := tensor.MustNew(tensor.Float64, tensor.MustShape(m))
		rhs.FillRandom(43, -1, 1)
		b.Bind(0, a)
		b.Bind(2, rhs)
	}
}

// CheckSchema validates a BENCH_*.json document against the Schema
// shape: the schema marker, a non-empty row list, and per-row required
// fields. It is the CI guard that keeps committed snapshots and freshly
// generated ones structurally interchangeable.
func CheckSchema(data []byte) error {
	var doc struct {
		Schema string                       `json:"schema"`
		Rows   []map[string]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("bench: not a JSON document: %w", err)
	}
	if doc.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", doc.Schema, Schema)
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("bench: document has no rows")
	}
	required := []string{
		"experiment", "workload", "params", "backend",
		"bc_before", "bc_after", "baseline_ns", "baseline_mad_ns",
		"optimized_ns", "optimized_mad_ns", "speedup",
		"pool_hits", "buffers_alloc", "fused_reductions",
		"plan_hits", "plan_misses", "note",
	}
	for i, row := range doc.Rows {
		for _, key := range required {
			if _, ok := row[key]; !ok {
				return fmt.Errorf("bench: row %d is missing %q", i, key)
			}
		}
		var name string
		if err := json.Unmarshal(row["backend"], &name); err != nil || name == "" {
			return fmt.Errorf("bench: row %d has no backend name", i)
		}
	}
	return nil
}
