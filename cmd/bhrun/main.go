// Command bhrun assembles and executes a textual byte-code listing,
// printing every BH_SYNCed register — a byte-code-level REPL for the
// virtual machine.
//
// Usage:
//
//	bhrun [-O] [-workers n] [-par-threshold n] [-no-fusion]
//	      [-repeat n] [-async] [-sessions k] [-shared] [-trace]
//	      [file.bh]
//
// -O rewrites the program with the algebraic optimizer; -trace prints the
// optimizer report, the executed program and VM sweep statistics.
// -workers and -par-threshold plumb the VM's Workers and
// ParallelThreshold knobs, so any bench configuration is reproducible
// from the CLI. Execution goes through the shared plan cache by the plan
// resolver the bohrium front end and bhd use: -repeat re-executes the
// program n times, so the first run optimizes and compiles a plan and the
// rest replay it (the "# plans:" trace line shows n-1 hits). -async
// submits every repeat to the background executor and waits once at the
// end — the submit/wait pipeline the bohrium front-end uses in async mode
// (the "# pipeline:" trace line counts plans it executed).
//
// -sessions runs the program in k concurrent sessions (each its own
// machine and register state, each doing its -repeat runs); with -shared
// the sessions hang off ONE engine — one worker pool, one plan cache, one
// buffer recycle pool, the paper's shared-middleware configuration —
// while without it each session gets a private engine. The printed
// registers come from session 0; -trace reports the summed stats, where
// the plan column shows cross-session reuse under -shared: k·n runs share
// the cached plans, but sessions that start together can each miss on the
// first batch and compile it, so the count of misses varies from run to
// run. Single-flight compilation waits for ROADMAP item 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bhrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("bhrun", flag.ContinueOnError)
	optimize := fs.Bool("O", false, "run the algebraic optimizer before executing")
	workers := fs.Int("workers", 0, "VM worker pool size (0 = GOMAXPROCS)")
	parThreshold := fs.Int("par-threshold", 0, "minimum sweep size before splitting across workers (0 = default)")
	noFusion := fs.Bool("no-fusion", false, "disable sweep fusion")
	repeat := fs.Int("repeat", 1, "execute the program n times through the plan cache")
	async := fs.Bool("async", false, "pipeline the repeats through the background executor (submit all, wait once)")
	sessions := fs.Int("sessions", 1, "run the program in k concurrent sessions")
	shared := fs.Bool("shared", false, "share one engine (pool, plan cache, buffer pool) across -sessions")
	trace := fs.Bool("trace", false, "print the executed program and sweep stats")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src string
	if fs.NArg() == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		src = string(data)
	} else {
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	}

	prog, err := bytecode.Parse(src)
	if err != nil {
		return err
	}
	if err := prog.Validate(); err != nil {
		return err
	}

	bcfg := backend.Config{VM: vm.Config{Workers: *workers, ParallelThreshold: *parThreshold, Fusion: !*noFusion}, Async: *async}
	if *repeat < 1 {
		*repeat = 1
	}
	if *sessions < 1 {
		*sessions = 1
	}

	// Build the session backends: private engines by default, one shared
	// engine (pool + plan cache + recycle pool) under -shared. Deferred
	// closes run in reverse, so every backend drains and closes before its
	// engine, also after an early error.
	backends := make([]*backend.Backend, *sessions)
	var eng *vm.Engine
	for i := range backends {
		if eng == nil || !*shared {
			eng = vm.NewEngine(vm.EngineConfig{Workers: *workers})
			defer eng.Close()
		}
		backends[i] = backend.New(eng, bcfg)
		defer backends[i].Close()
	}

	// Each session resolves the batch on every repeat; under -shared,
	// sessions hit the plan another compiled. Resolving only reads prog,
	// so the sessions share it.
	var opts rewrite.Options // the zero Options rewrite nothing
	if *optimize {
		opts = rewrite.DefaultOptions()
	}
	sig := backend.Signature{Scope: "bhrun", Options: opts, Fusion: bcfg.VM.Fusion}
	plans := make([]backend.Plan, *sessions)
	reports := make([]*rewrite.Report, *sessions)
	sessionRun := func(i int) error {
		b := backends[i]
		resolver := backend.NewResolver(b, sig, nil, nil)
		key := resolver.Key(prog)
		for range *repeat {
			res, err := resolver.Resolve(prog, key)
			if err != nil {
				return err
			}
			if res.Report != nil {
				reports[i] = res.Report
			}
			plans[i] = res.Plan
			if err := b.Submit(context.Background(), res.Plan, res.Consts); err != nil {
				return err
			}
		}
		return b.Wait(context.Background())
	}

	errs := make([]error, *sessions)
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sessionRun(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && *sessions == 1 {
			return err
		}
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}

	// What executed is the plan's program: optimized under -O, with the
	// inputs no instruction references pruned.
	executed := bytecode.NewProgram()
	if plans[0] != nil {
		executed = plans[0].Program()
	}
	if *trace {
		// Every session resolved the same batch, so any session that
		// missed reports the optimization.
		for _, report := range reports {
			if *optimize && report != nil {
				fmt.Fprintf(stdout, "# optimizer: %s", report.String())
				break
			}
		}
		fmt.Fprint(stdout, executed.Dump())
		fmt.Fprintln(stdout, "# ---")
	}
	for i := range executed.Instrs {
		in := &executed.Instrs[i]
		if in.Op != bytecode.OpSync {
			continue
		}
		t, ok := backends[0].Tensor(in.Out.Reg, in.Out.View)
		if !ok {
			fmt.Fprintf(stdout, "%s = <freed>\n", in.Out.Reg)
			continue
		}
		fmt.Fprintf(stdout, "%s = %s\n", in.Out.Reg, t.Format(tensor.FormatOptions{MaxPerDim: 10, Precision: 6}))
	}
	if *trace {
		var st vm.Stats
		for _, b := range backends {
			st.Accumulate(b.Stats())
		}
		if *sessions > 1 {
			mode := "private engines"
			if *shared {
				mode = "one shared engine"
			}
			fmt.Fprintf(stdout, "# sessions: %d (%s)\n", *sessions, mode)
		}
		fmt.Fprintf(stdout, "# stats: %d instructions, %d sweeps, %d fused, %d chained, %d fused-reductions, %d elements\n",
			st.Instructions, st.Sweeps, st.FusedInstructions, st.ChainedInstructions, st.FusedReductions, st.Elements)
		fmt.Fprintf(stdout, "# fused by dtype: %s\n", st.FusedByDType)
		fmt.Fprintf(stdout, "# buffers: %d allocated (%d bytes), %d pool hits\n",
			st.BuffersAllocated, st.BytesAllocated, st.PoolHits)
		fmt.Fprintf(stdout, "# plans: %d hits, %d misses, %d evictions\n",
			st.PlanHits, st.PlanMisses, st.PlanEvictions)
		fmt.Fprintf(stdout, "# pipeline: %d plans executed asynchronously\n", st.Pipelined)
	}
	return nil
}
