package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bohrium/benchmark/span"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: what -out appends and -compare
// reads, one JSON object per line.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Samples   int                    `json:"latency_samples"`
	P99Ms     float64                `json:"batch_p99_ms,omitempty"` // informational, not gating
	Metrics   map[string]metricValue `json:"metrics"`
	Segments  map[string][]float64   `json:"segments,omitempty"` // per-segment values behind the medians
	Shape     []string               `json:"shape,omitempty"`
	Error     string                 `json:"error,omitempty"`
	Env       *environment           `json:"env"`
}

func (r *runRecord) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *runRecord) set(defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Only a run without a single good batch divides by zero; JSON
		// cannot carry the result, and the run is reported failed anyway.
		v = math.MaxFloat64
	}
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// settle adds a window to the record. A failed end-state check cannot
// say which batch went wrong, so every batch of the window counts as
// failed.
func (r *runRecord) settle(w *window, verr error) {
	r.Attempted += w.attempted
	r.Samples += len(w.latMs)
	err := w.firstErr
	if verr != nil {
		r.Failed += w.attempted
		err = fmt.Errorf("end-state check: %w", verr)
	} else {
		r.Failed += w.failed
	}
	if err != nil && r.Error == "" {
		r.Error = err.Error()
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// segments is how many times the untraced run sets the workload up and
// measures it. Every reported value is the median over the segments, so
// one unlucky set-up — a slow process start, an unfavourable memory
// layout, a neighbour's burst on the host — does not decide the run.
const segments = 5

// totals adds the warm-up batches to the windows' per-client counts: the
// references replay everything since open.
func totals(wl *workload, windows ...*window) []int {
	done := make([]int, wl.clients)
	for c := range done {
		done[c] = wl.warmup
		for _, w := range windows {
			done[c] += w.done[c]
		}
	}
	return done
}

// measureEndToEnd is the untraced run: segments times, set the workload
// up and drive one closed-loop window of a segment's share of the time
// (or of lim.batches batches per client, when that is set).
func measureEndToEnd(ctx context.Context, wl *workload, seed int64, sz sizes, lim limit, env *environment) (*runRecord, error) {
	rec := &runRecord{Workload: wl.name, Seed: seed, Env: env, Metrics: map[string]metricValue{}}
	lim.duration /= segments
	var setups, rates, p50s, p95s, p99s []float64
	for seg := 0; seg < segments && ctx.Err() == nil; seg++ {
		s, d, err := setUp(ctx, wl, seed, sz, env)
		if err != nil {
			return nil, err
		}
		runtime.GC() // every segment starts from a collected heap
		w := runWindow(ctx, s, wl.clients, totals(wl), lim, nil)
		verr := s.verify(totals(wl, w))
		s.close()
		rec.settle(w, verr)
		setups = append(setups, d.Seconds())
		rates = append(rates, w.rate())
		p50s = append(p50s, w.percentile(0.50))
		p95s = append(p95s, w.percentile(0.95))
		p99s = append(p99s, w.percentile(0.99))
	}
	if len(setups) == 0 {
		return nil, ctx.Err() // interrupted before the first segment
	}
	rec.P99Ms = median(p99s)
	rec.set(endToEnd, "setup_s", median(setups))
	rec.set(endToEnd, "batches_per_s", median(rates))
	rec.set(endToEnd, "batch_p50_ms", median(p50s))
	rec.set(endToEnd, "batch_p95_ms", median(p95s))
	rec.Segments = map[string][]float64{"setup_s": setups, "batches_per_s": rates, "batch_p50_ms": p50s, "batch_p95_ms": p95s}
	return rec, nil
}

// keptSpans bounds the spans kept in detail per run; totals always cover
// every span.
const keptSpans = 60000

// measureLayers is the traced run: a short untraced window for the
// tracing overhead, the traced window with counts taken around it, then
// the layer replay and the triad on the quiet machine. The windows are
// time-bounded, so every count is divided by the traced window's batches:
// a faster commit runs more batches and must not read as more evictions
// or collections.
func measureLayers(ctx context.Context, wl *workload, seed int64, sz sizes, lim limit, env *environment) (*runRecord, *span.Trace, error) {
	rec := &runRecord{Workload: wl.name, Seed: seed, Traced: true, Env: env, Metrics: map[string]metricValue{}}
	// peak_rss_mb is this workload's peak: hand back what earlier
	// workloads and untraced segments left resident, then restart the
	// process's high-water mark. (The bhd child is new in every set-up.)
	debug.FreeOSMemory()
	resetVmHWM()
	s, _, err := setUp(ctx, wl, seed, sz, env)
	if err != nil {
		return nil, nil, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	// Untraced sixths before and after the traced two thirds: a workload
	// whose speed drifts as caches fill would otherwise bias the overhead.
	plain := limit{duration: lim.duration / 6, batches: (lim.batches + 5) / 6}
	traced := limit{duration: lim.duration - 2*plain.duration, batches: lim.batches}
	w0 := runWindow(ctx, s, wl.clients, totals(wl), plain, nil)

	epoch := time.Now()
	recs := make([]*span.Recorder, wl.clients+1)
	for c := range recs {
		recs[c] = span.NewRecorder(epoch, c, keptSpans/len(recs))
	}
	c0, err := s.counters()
	if err != nil {
		return nil, nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w1 := runWindow(ctx, s, wl.clients, totals(wl, w0), traced, recs[:wl.clients])
	runtime.ReadMemStats(&m1)
	c1, err := s.counters()
	if err != nil {
		return nil, nil, err
	}
	w2 := runWindow(ctx, s, wl.clients, totals(wl, w0, w1), plain, nil)
	verr := s.verify(totals(wl, w0, w1, w2))
	peakKiB := c1.peak
	if peakKiB == 0 {
		peakKiB = vmHWM(os.Getpid())
	}
	s.close()
	closed = true
	all := &window{latMs: w1.latMs}
	for _, w := range []*window{w0, w1, w2} {
		all.attempted += w.attempted
		all.failed += w.failed
		if all.firstErr == nil {
			all.firstErr = w.firstErr
		}
	}
	rec.settle(all, verr)

	items, err := wl.replayItems(seed, sz)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: replay inputs: %w", wl.name, err)
	}
	prof, err := replayLayers(items, sz.replayReps, recs[wl.clients])
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	triad := triadGBs(sz.triadN)
	trace := span.Merge(wl.name, seed, recs)

	d := c1.minus(c0)
	n := float64(w1.attempted)
	ratio := func(a, b int) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	hit := ratio(d.planHits, d.planMisses)
	miss := 1 - hit
	if d.planHits+d.planMisses == 0 {
		miss = 0
	}
	rewriteShare := miss
	if wl.rewriteOnHit {
		rewriteShare = 1
	}
	set := func(name string, v float64) { rec.set(perLayer, name, v) }
	set("record_us_per_batch", trace.Micros("record")/n)
	set("bytecodes_per_batch", prof.bcBefore)
	set("flush_us_per_batch", trace.Micros("flush")/n)
	set("read_us_per_batch", trace.Micros("read")/n)
	set("parse_us", prof.parseUs)
	set("validate_us", prof.validateUs)
	set("fingerprint_us", prof.fingerprintUs)
	set("listing_bytes", prof.listingBytes)
	set("rewrite_us_per_batch", prof.rewriteUs*rewriteShare)
	set("bc_before", prof.bcBefore)
	set("bc_after", prof.bcAfter)
	set("rule_applications", prof.ruleApplications)
	set("passes", prof.passes)
	set("compile_us_per_batch", prof.compileUs*miss)
	set("lookup_us", prof.lookupUs)
	set("plan_hit_ratio", hit)
	set("plan_evictions", float64(d.planEvictions)/n)
	set("execute_us_per_batch", prof.executeUs)
	set("sweeps", float64(d.sweeps)/n)
	set("elements", float64(d.elements)/n)
	set("fused_instructions", float64(d.fusedInstructions)/n)
	set("fused_reductions", float64(d.fusedReductions)/n)
	set("compulsory_bytes_per_batch", prof.compulsoryBytes)
	gbs := 0.0
	if prof.executeUs > 0 {
		gbs = prof.compulsoryBytes / prof.executeUs / 1e3
	}
	set("gb_per_s_compulsory", gbs)
	set("triad_gb_per_s", triad)
	set("pct_of_triad", 100*gbs/triad)
	set("tensor_read_us", prof.tensorReadUs)
	set("buffers_alloc", float64(d.buffersAlloc)/n)
	set("bytes_alloc", float64(d.bytesAlloc)/n)
	set("pool_hit_ratio", ratio(d.poolHits, d.buffersAlloc))
	overhead := 0.0
	if post := trace.Totals["post"]; post.Count > 0 {
		overhead = float64(post.Nanos)/float64(post.Count)/1e3 - prof.totalUs
	}
	set("http_overhead_us", overhead)
	set("shed_share", float64(d.sheds)/n)
	set("retries", float64(d.retries)/n)
	set("server_plan_hits", float64(d.serverPlanHits)/n)
	set("server_live_bytes", float64(c1.serverLiveBytes))
	set("alloc_bytes_per_batch", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	set("gc_cycles", float64(m1.NumGC-m0.NumGC)/n)
	set("peak_rss_mb", float64(peakKiB)/1024)
	plainRate := float64(w0.attempted-w0.failed+w2.attempted-w2.failed) / (w0.elapsed + w2.elapsed).Seconds()
	set("trace_overhead_pct", 100*(plainRate-w1.rate())/plainRate)

	rec.Shape = shapeChecks(wl.name, rec, w1.meanMs()*1e3)
	return rec, trace, nil
}

// shapeChecks states what each workload must look like for its role —
// which layer dominates, whether the plan cache is used — and whether
// this run did. A miss is a warning, not a failure: it means the
// workload is mis-sized for the machine, which README.md then has to
// explain.
func shapeChecks(name string, rec *runRecord, meanBatchUs float64) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "WARN"
		}
		out = append(out, verdict+" "+fmt.Sprintf(format, args...))
	}
	m := func(n string) float64 { return rec.Metrics[n].Value }
	executeShare := m("execute_us_per_batch") / meanBatchUs
	compileShare := (m("rewrite_us_per_batch") + m("compile_us_per_batch")) / meanBatchUs
	switch name {
	case "stencil-sweep", "fused-chain", "dispatch-small":
		check(m("plan_hit_ratio") >= 0.95, "plan_hit_ratio %.3f >= 0.95", m("plan_hit_ratio"))
	case "cold-rewrite":
		check(m("plan_hit_ratio") <= 0.05, "plan_hit_ratio %.3f <= 0.05", m("plan_hit_ratio"))
		check(compileShare >= 0.5, "rewrite+compile share of a batch %.2f >= 0.50", compileShare)
	}
	switch name {
	case "stencil-sweep":
		check(executeShare >= 0.85, "execute share of a batch %.2f >= 0.85", executeShare)
	case "dispatch-small":
		check(executeShare < 0.5, "execute share of a batch %.2f < 0.50", executeShare)
	}
	check(m("pct_of_triad") <= 100, "pct_of_triad %.1f <= 100", m("pct_of_triad"))
	return out
}

// triadGBs runs a plain-Go STREAM triad a[i] = b[i] + s*c[i] over three
// n-element float64 arrays on GOMAXPROCS goroutines and returns the best
// of five passes in GB/s, counting 24 bytes per element as STREAM does.
func triadGBs(n int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b, c := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
		if gbs := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	return best
}

// writeTrace stores the trace under benchmark/out/ in the repository.
func writeTrace(root string, tr *span.Trace) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tr.Workload+".json")
	return path, tr.WriteFile(path)
}
