// Command bhbench regenerates the paper's evaluation tables, experiments
// E1–E7 (ARCHITECTURE.md §6): byte-code counts before/after
// optimization, baseline vs optimized wall-clock times for Listings 1–5
// and equation (2), the end-to-end scientific kernels, the ablation rows
// for the design decisions D1–D4, and the dtype-generalized fusion sweep
// with its reduction-epilogue counters. Each time is the median of
// -repeats runs, printed with its median absolute deviation (±mad).
//
// Usage:
//
//	bhbench [-experiment all|E1|...|E7] [-n elements] [-solve-max m]
//	        [-repeats r] [-json path] [-schema-check file]
//
// -json writes the rows as a machine-readable BENCH_*.json document. The
// schema ("bohrium-bench/v2") is one object {"schema": ..., "rows":
// [...]}; each row carries experiment, workload, params, backend (always
// "inprocess", kept so v2 documents stay valid), bc_before, bc_after,
// baseline_ns, baseline_mad_ns, optimized_ns, optimized_mad_ns (median
// and MAD, nanoseconds), speedup (the ratio of the medians), pool_hits,
// buffers_alloc, fused_reductions, plan_hits, plan_misses, and note. -schema-check validates an existing
// BENCH_*.json against that schema and exits without running experiments
// — the CI guard that keeps committed snapshots loadable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bohrium/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bhbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bhbench", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "which experiment to run: all, E1, E2, E3, E4, E5, E6, E7")
	n := fs.Int("n", 1<<20, "elementwise vector length")
	solveMax := fs.Int("solve-max", 256, "largest linear-system size for E4")
	repeats := fs.Int("repeats", 7, "timing repetitions (median and MAD)")
	jsonPath := fs.String("json", "", "also write the rows as machine-readable JSON ("+bench.Schema+") to this path")
	schemaCheck := fs.String("schema-check", "", "validate an existing BENCH_*.json against "+bench.Schema+" and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"n", *n, 1}, {"repeats", *repeats, 1}, {"solve-max", *solveMax, 1}} {
		if f.val < f.min {
			return fmt.Errorf("-%s %d: must be at least %d", f.name, f.val, f.min)
		}
	}

	if *schemaCheck != "" {
		data, err := os.ReadFile(*schemaCheck)
		if err != nil {
			return err
		}
		if err := bench.CheckSchema(data); err != nil {
			return fmt.Errorf("%s: %w", *schemaCheck, err)
		}
		fmt.Fprintf(stdout, "%s: valid %s document\n", *schemaCheck, bench.Schema)
		return nil
	}

	scale := bench.Scale{VectorN: *n, SolveMax: *solveMax, Repeats: *repeats}
	runners := map[string]func(bench.Scale) ([]bench.Row, error){
		"all": bench.All,
		"E1":  bench.E1AddMerge,
		"E2":  bench.E2PowerChain,
		"E3":  bench.E3PowerSweep,
		"E4":  bench.E4Solve,
		"E5":  bench.E5Workloads,
		"E6":  bench.E6Ablations,
		"E7":  bench.E7DTypeFusion,
	}
	runner, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	rows, err := runner(scale)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, bench.Table(rows))
	if *jsonPath != "" {
		data, err := bench.JSON(rows)
		if err != nil {
			return err
		}
		return os.WriteFile(*jsonPath, data, 0o644)
	}
	return nil
}
