// Command benchmark is the repository's yardstick: five closed-loop
// workloads over the byte-code pipeline, each checked against an
// independent reference, reporting end-to-end metrics from an untraced
// run and per-layer metrics from a traced run plus a layer replay.
// BENCHMARK.json at the repository root names the command, the
// workloads, the metrics and their bounds; README.md in this directory
// explains them.
//
//	bash benchmark/run.sh --workload stencil-sweep --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1 -trace 1 -out results.jsonl   # every workload
//	bash benchmark/run.sh -compare old.jsonl new.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var workloads = []*workload{
	{
		name: "stencil-sweep", clients: 1, warmup: 3, open: openStencil,
		why:   "2-D Jacobi sweeps on a grid above L2: strided VM execution is >85% of a batch and every batch hits the plan cache",
		kinds: []kind{{"sweep", 0, 1}},
	},
	{
		// Warm-up 9: three float64,float64,float32 periods, after which the
		// recycled register ids of every batch repeat.
		name: "fused-chain", clients: 1, warmup: 9, open: openFused, reads: true,
		why:   "Black-Scholes chain ending in a mean, float64 and float32 2:1: unit-stride fused kernels and the reduction epilogue, cache hit",
		kinds: []kind{{"float64", 0, 2.0 / 3}, {"float32", 2, 1.0 / 3}},
	},
	{
		// The long warm-ups of the fast workloads keep setup_s well above
		// timer and scheduler noise.
		name: "dispatch-small", clients: 1, warmup: 4096, open: openDispatch,
		why:   "tiny interleaved batches: time goes to recording, fingerprint, plan lookup and dispatch, so sweep-kernel work must not move it",
		kinds: []kind{{"jacobi", 0, 2.0 / 3}, {"power", 1, 1.0 / 3}},
	},
	{
		// Warm-up 1024: until the buffer recycle pool has seen most array
		// lengths, throughput still climbs.
		name: "cold-rewrite", clients: 1, warmup: 1024, open: openCold, reads: true,
		why:   "every batch structurally new (paper families, seeded): the plan cache always misses, so rewrite passes and VM compile dominate",
		kinds: coldKinds(64),
	},
	{
		name: "bhd-tenants", clients: bhdTenants, warmup: 128, open: openBhd, replay: bhdReplay, rewriteOnHit: true,
		why: "live bhd child, 2 tenants, zipfian listings, reads mixed in: auth, parse, session lock, server-side optimize+compile and JSON dominate",
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// environment describes where the run happened; it is written into
// every record so a busy or different machine is visible in the output.
type environment struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"loadavg_1m_at_start"`

	root   string // repository root
	bhdBin string // built on demand, before any clock starts
}

func newEnvironment() (*environment, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	env := &environment{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown", root: root,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil { // a bare checkout has no commit to name
		env.Commit = strings.TrimSpace(string(out))
	}
	return env, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module bohrium.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module bohrium" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the bohrium repository: no go.mod declaring module bohrium above the working directory")
		}
		dir = parent
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the one-line JSON result (default: every workload)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "length of the measuring window")
	traceArg := fs.String("trace", "0", "1: traced run with per-layer metrics; with one -workload it replaces the untraced run, otherwise it follows it")
	batches := fs.Int("batches", 0, "end the window after this many batches per client instead of -seconds (count-exact runs)")
	out := fs.String("out", "", "append one JSON record per workload run to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare old.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced, err := strconv.ParseBool(*traceArg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -trace wants 0 or 1, got %q\n", *traceArg)
		return 2
	}
	env, err := newEnvironment()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(stdout, stderr, filepath.Join(env.root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	selected := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		selected = []*workload{wl}
	}
	lim := limit{duration: time.Duration(*seconds * float64(time.Second)), batches: *batches}

	// Ctrl-C and SIGTERM end the windows early; the deferred closes then
	// stop the bhd child before the process exits.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fmt.Fprintf(stdout, "# benchmark seed=%d gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s loadavg_1m=%.2f\n",
		*seed, env.GoMaxProcs, env.NumCPU, env.CPUModel, env.GoVersion, env.Commit, env.Load1)

	var records []*runRecord
	for _, wl := range selected {
		if wl.name == "bhd-tenants" && env.bhdBin == "" {
			if env.bhdBin, err = buildDaemon(env.root); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		// One -workload with -trace 1 is the driver's traced run: only the
		// per-layer metrics. Otherwise the untraced run comes first.
		if !traced || *name == "" {
			rec, err := measureEndToEnd(ctx, wl, *seed, fullSizes, lim, env)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRecord(stdout, rec, endToEnd)
			records = append(records, rec)
		}
		if traced && ctx.Err() == nil {
			rec, tr, err := measureLayers(ctx, wl, *seed, fullSizes, lim, env)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRecord(stdout, rec, perLayer)
			path, err := writeTrace(env.root, tr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark: write trace:", err)
				return 1
			}
			for _, name := range tr.Names() {
				t := tr.Totals[name]
				fmt.Fprintf(stdout, "%-15s   span %-12s %9d calls %12.3f ms total %12.3f ms self\n",
					wl.name, name, t.Count, float64(t.Nanos)/1e6, float64(t.SelfNanos())/1e6)
			}
			fmt.Fprintf(stdout, "%-15s trace: %d spans kept, %d only totalled, written to %s\n", wl.name, len(tr.Spans), tr.Dropped, path)
			records = append(records, rec)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "benchmark: interrupted")
		return 130
	}
	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return finish(stdout, records, *name != "")
}

// finish prints the last line — one JSON object with exactly the keys
// correct, attempted, failed and metrics — and picks the exit code: a
// wrong value, an error or a refusal anywhere is a failed run.
func finish(stdout io.Writer, records []*runRecord, single bool) int {
	result := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, rec := range records {
		result.Correct = result.Correct && rec.Correct
		result.Attempted += rec.Attempted
		result.Failed += rec.Failed
		for name, v := range rec.Metrics {
			if !single {
				name = rec.Workload + "/" + name
			}
			result.Metrics[name] = v
		}
	}
	line, err := json.Marshal(result)
	if err != nil { // a NaN or Inf metric: the run produced no usable numbers
		fmt.Fprintln(stdout, `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

func printRecord(w io.Writer, rec *runRecord, defs []metricDef) {
	kind := "end-to-end, untraced"
	if rec.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "%-15s %s: %d batches attempted, %d failed (failed_share %.4f), %d latency samples\n",
		rec.Workload, kind, rec.Attempted, rec.Failed, rec.failedShare(), rec.Samples)
	for _, d := range defs {
		fmt.Fprintf(w, "%-15s   %-28s %14.6g %s", rec.Workload, d.name, rec.Metrics[d.name].Value, d.unit)
		if seg := rec.Segments[d.name]; len(seg) > 0 {
			fmt.Fprintf(w, "   median of %.4g", seg)
		}
		fmt.Fprintln(w)
	}
	if !rec.Traced {
		fmt.Fprintf(w, "%-15s   %-28s %14.6g ms (informational)\n", rec.Workload, "batch_p99_ms", rec.P99Ms)
	}
	for _, s := range rec.Shape {
		fmt.Fprintf(w, "%-15s   shape %s\n", rec.Workload, s)
	}
	if rec.Error != "" {
		fmt.Fprintf(w, "%-15s   FAILED: %s\n", rec.Workload, rec.Error)
	}
}

func appendRecords(path string, records []*runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}
