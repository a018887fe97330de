// Command bhrun assembles and executes a textual byte-code listing,
// printing every BH_SYNCed register — a byte-code-level REPL for the
// virtual machine.
//
// Usage:
//
//	bhrun [-O] [-backend name] [-chunk-bytes n] [-workers n]
//	      [-par-threshold n] [-no-fusion] [-repeat n] [-async]
//	      [-sessions k] [-shared] [-trace] [file.bh]
//
// -O runs the algebraic optimizer before execution; -trace prints the
// (possibly optimized) program and VM sweep statistics. -workers and
// -par-threshold plumb the VM's Workers and ParallelThreshold knobs, so
// any bench configuration is reproducible from the CLI. -backend selects
// the execution backend ("inprocess" fused sweeps by default; "outofcore"
// streams elementwise segments through -chunk-bytes-sized tiles) — every
// backend is value- and error-identical, so the flag only changes the
// execution strategy. Execution goes through the fingerprint-keyed plan
// cache, scoped per backend: -repeat re-executes the program n times, so
// the first run compiles a plan and the rest replay it (the "# plans:"
// trace line shows n-1 hits). -async submits every repeat to the
// background executor and waits once at the end — the submit/wait
// pipeline the bohrium front-end uses in async mode (the "# pipeline:"
// trace line counts plans it executed).
//
// -sessions runs the program in k concurrent sessions (each its own
// backend and register state, each doing its -repeat runs); with -shared
// the sessions hang off ONE engine — one worker pool, one plan cache, one
// buffer recycle pool, the paper's shared-middleware configuration —
// while without it each session gets a private engine. The printed
// registers come from session 0; -trace reports the summed stats, where
// the plan column shows cross-session reuse under -shared (k·n runs, one
// compile) and the "# chunks:" line counts the tiles a chunked backend
// streamed.
package main

import (
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
	backendName := fs.String("backend", "", fmt.Sprintf("execution backend %v (default %q)", backend.Names(), backend.DefaultName))
	chunkBytes := fs.Int("chunk-bytes", 0, "per-array tile budget of chunked backends (0 = backend default)")
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

	if *optimize {
		optimized, report, err := rewrite.Default().Optimize(prog)
		if err != nil {
			return err
		}
		if *trace {
			fmt.Fprintf(stdout, "# optimizer: %s", report.String())
		}
		prog = optimized
	}
	if *trace {
		fmt.Fprint(stdout, prog.Dump())
		fmt.Fprintln(stdout, "# ---")
	}

	bcfg := backend.Config{
		VM:         vm.Config{Workers: *workers, ParallelThreshold: *parThreshold, Fusion: !*noFusion},
		ChunkBytes: *chunkBytes,
	}
	if *repeat < 1 {
		*repeat = 1
	}
	if *sessions < 1 {
		*sessions = 1
	}

	// Build the session backends: private engines by default, one shared
	// engine (pool + plan cache + recycle pool) under -shared.
	backends := make([]backend.Backend, *sessions)
	open := func() (backend.Backend, error) {
		eng := vm.NewEngine(vm.EngineConfig{Workers: *workers})
		b, err := backend.Open(*backendName, eng, bcfg)
		if err != nil {
			eng.Close()
			return nil, err
		}
		// The backend is the engine's only tenant; closing it may close
		// the engine too.
		return privateEngineBackend{Backend: b, eng: eng}, nil
	}
	if *shared {
		eng := vm.NewEngine(vm.EngineConfig{Workers: *workers})
		defer eng.Close()
		open = func() (backend.Backend, error) { return backend.Open(*backendName, eng, bcfg) }
	}
	for i := range backends {
		if backends[i], err = open(); err != nil {
			return err
		}
		defer backends[i].Close()
	}

	// sessionRun does one session's -repeat executions through the plan
	// cache (each session runs its own copy of the program; under -shared
	// every session after the first hits the plan another compiled).
	sessionRun := func(b backend.Backend, p *bytecode.Program) (err error) {
		var exec *backend.Executor
		if *async {
			exec = backend.NewExecutor(b, 0, "")
			// Close on every path — an early compile/execute error must
			// not leave the executor goroutine or queued plans behind.
			defer func() {
				if cerr := exec.Close(); err == nil {
					err = cerr
				}
			}()
		}
		fp := p.Fingerprint()
		consts := p.Constants()
		for i := 0; i < *repeat; i++ {
			plan, _, ok := b.LookupPlan(fp, consts, nil)
			if !ok {
				var err error
				if plan, err = b.Compile(p); err != nil {
					return err
				}
				b.InsertPlan(fp, consts, false, plan, nil)
			}
			if exec != nil {
				exec.Submit(plan)
				continue
			}
			if err := b.Execute(plan); err != nil {
				return err
			}
		}
		return nil
	}

	if *sessions == 1 {
		if err := sessionRun(backends[0], prog); err != nil {
			return err
		}
	} else {
		errs := make([]error, *sessions)
		var wg sync.WaitGroup
		for i, b := range backends {
			wg.Add(1)
			go func(i int, b backend.Backend) {
				defer wg.Done()
				errs[i] = sessionRun(b, prog.Clone())
			}(i, b)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}
	}

	for i := range prog.Instrs {
		in := &prog.Instrs[i]
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
		fmt.Fprintf(stdout, "# backend: %s\n", backends[0].Name())
		fmt.Fprintf(stdout, "# stats: %d instructions, %d sweeps, %d fused, %d chained, %d fused-reductions, %d elements\n",
			st.Instructions, st.Sweeps, st.FusedInstructions, st.ChainedInstructions, st.FusedReductions, st.Elements)
		fmt.Fprintf(stdout, "# fused by dtype: %s\n", st.FusedByDType)
		fmt.Fprintf(stdout, "# buffers: %d allocated (%d bytes), %d pool hits\n",
			st.BuffersAllocated, st.BytesAllocated, st.PoolHits)
		fmt.Fprintf(stdout, "# plans: %d hits, %d misses, %d evictions\n",
			st.PlanHits, st.PlanMisses, st.PlanEvictions)
		fmt.Fprintf(stdout, "# pipeline: %d plans executed asynchronously\n", st.Pipelined)
		if backends[0].Capabilities().Chunked {
			fmt.Fprintf(stdout, "# chunks: %d tiles streamed\n", st.Chunks)
		}
	}
	return nil
}

// privateEngineBackend ties a backend to the engine created just for it:
// closing the backend closes the engine, restoring the old one-machine
// vm.New teardown shape for unshared sessions.
type privateEngineBackend struct {
	backend.Backend
	eng *vm.Engine
}

func (p privateEngineBackend) Close() {
	p.Backend.Close()
	p.eng.Close()
}
