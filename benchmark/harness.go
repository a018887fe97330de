package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bohrium/benchmark/span"
)

// A workload opens the system under test on seeded inputs and drives it
// in a closed loop: each client issues its next batch only when the
// previous result is in hand.
type workload struct {
	name string
	// why is the one-line reason the workload exists, as in BENCHMARK.json.
	why string
	// clients is the number of closed-loop clients (goroutines).
	clients int
	// warmup is the fixed count of untimed batches per client that setup
	// ends with: enough for every steady-state structure to be compiled
	// once, so the timed window measures the state users stay in.
	warmup int
	// open generates the inputs from the seed and opens the system.
	open func(seed int64, sz sizes, env *environment) (session, error)
	// kinds lists the kinds of batch an in-process workload issues in
	// steady state, for the layer replay to capture; reads tells whether
	// its batches end with the result being read back.
	kinds []kind
	reads bool
	// replay lists the batches for the layer replay when they cannot be
	// captured from a Context (bhd: the catalogue's listing texts).
	replay func(seed int64, sz sizes) ([]replayItem, error)
	// rewriteOnHit marks hosts that run the rewrite pipeline before the
	// plan-cache lookup, so a cache hit still pays for it (bhd does).
	rewriteOnHit bool
}

// session is one opened system. batch is called from one goroutine per
// client; everything else from the harness goroutine while no client
// runs.
type session interface {
	// batch runs client's i-th batch: record, flush, read, and check the
	// value against the reference where the workload checks per batch.
	// tr is nil in the untraced run.
	batch(ctx context.Context, client, i int, tr *span.Recorder) error
	// verify checks the end state against the independent reference,
	// given how many batches each client ran since open.
	verify(done []int) error
	// counters snapshots the cumulative counts of the layers below.
	counters() (counters, error)
	close()
}

// counters are cumulative counts taken at the layer boundaries: the
// VM's own statistics for the in-process workloads, the daemon's stats
// endpoints and the client's retry bookkeeping for bhd.
type counters struct {
	sweeps, elements                      int
	fusedInstructions, fusedReductions    int
	planHits, planMisses, planEvictions   int
	buffersAlloc, bytesAlloc, poolHits    int
	sheds, retries                        int
	serverPlanHits, serverLiveBytes, peak int // peak: child VmHWM in KiB, 0 for in-process
}

func (c counters) minus(o counters) counters {
	c.sweeps -= o.sweeps
	c.elements -= o.elements
	c.fusedInstructions -= o.fusedInstructions
	c.fusedReductions -= o.fusedReductions
	c.planHits -= o.planHits
	c.planMisses -= o.planMisses
	c.planEvictions -= o.planEvictions
	c.buffersAlloc -= o.buffersAlloc
	c.bytesAlloc -= o.bytesAlloc
	c.poolHits -= o.poolHits
	c.sheds -= o.sheds
	c.retries -= o.retries
	c.serverPlanHits -= o.serverPlanHits
	return c
}

// sizes scales the workloads: fullSizes is what BENCHMARK.json measures
// and the only scale the command runs; the tests run the same code on
// smaller arrays.
type sizes struct {
	stencilN   int // grid edge
	fusedN     int // options priced per batch
	dispatchN  int // elements per small array
	coldMaxN   int // longest cold-rewrite array
	bhdMaxN    int // longest catalogue array
	replayReps int // timed repetitions of each isolated call
	triadN     int // elements per triad array
}

var fullSizes = sizes{stencilN: 1024, fusedN: 1 << 20, dispatchN: 2048, coldMaxN: 2048, bhdMaxN: 16384, replayReps: 20, triadN: 8 << 20}

// window is the outcome of one closed-loop measuring window.
type window struct {
	attempted, failed int
	firstErr          error
	elapsed           time.Duration
	latMs             []float64 // successful batches, sorted ascending
	done              []int     // batches per client
}

func (w *window) rate() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// percentile returns the p-quantile (0..1) of the sorted latencies by
// the nearest-rank rule. A failed batch counts as missing every latency:
// it sits above all measured values, reported as the largest float
// (JSON has no infinity).
func (w *window) percentile(p float64) float64 {
	n := len(w.latMs) + w.failed
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(w.latMs) {
		return math.MaxFloat64
	}
	return w.latMs[rank]
}

func (w *window) meanMs() float64 {
	var sum float64
	for _, v := range w.latMs {
		sum += v
	}
	return sum / float64(len(w.latMs))
}

// limit ends a window: after a duration, or after a fixed number of
// batches per client when batches is positive (tests and count-exact
// comparisons use the latter).
type limit struct {
	duration time.Duration
	batches  int
}

// runWindow drives every client of the session until the limit and
// returns the merged samples. first[c] is the index of client c's first
// batch, so batch numbering continues across windows of one session.
func runWindow(ctx context.Context, s session, clients int, first []int, lim limit, recs []*span.Recorder) *window {
	type result struct {
		lat      []float64
		failed   int
		firstErr error
		end      time.Time
	}
	results := make([]result, clients)
	// Sample storage is sized before the clock starts: growing a slice of
	// a million samples inside the window would show up as tail latency.
	capacity := lim.batches
	if capacity == 0 {
		capacity = 1 << 21
	}
	for c := range results {
		results[c].lat = make([]float64, 0, capacity)
	}
	start := time.Now()
	deadline := start.Add(lim.duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *span.Recorder
			if recs != nil {
				tr = recs[c]
			}
			res := &results[c]
			for i := first[c]; ; i++ {
				if lim.batches > 0 {
					if i-first[c] >= lim.batches {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				if ctx.Err() != nil {
					break
				}
				tr.SetBatch(i)
				t0 := time.Now()
				err := s.batch(ctx, c, i, tr)
				d := time.Since(t0)
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("client %d batch %d: %w", c, i, err)
					}
					continue
				}
				res.lat = append(res.lat, float64(d)/1e6)
			}
			res.end = time.Now()
		}(c)
	}
	wg.Wait()
	w := &window{done: make([]int, clients)}
	end := start
	for c, r := range results {
		w.done[c] = len(r.lat) + r.failed
		w.attempted += w.done[c]
		w.failed += r.failed
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
		w.latMs = append(w.latMs, r.lat...)
		if r.end.After(end) {
			end = r.end
		}
	}
	w.elapsed = end.Sub(start)
	sort.Float64s(w.latMs)
	return w
}

// setUp is what setup_s times: input generation, opening the system
// (for bhd: spawning the pre-built daemon, /healthz, session creation)
// and the workload's fixed count of warm-up batches.
func setUp(ctx context.Context, wl *workload, seed int64, sz sizes, env *environment) (session, time.Duration, error) {
	t0 := time.Now()
	s, err := wl.open(seed, sz, env)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: open: %w", wl.name, err)
	}
	first := make([]int, wl.clients)
	w := runWindow(ctx, s, wl.clients, first, limit{batches: wl.warmup}, nil)
	d := time.Since(t0)
	if w.failed > 0 {
		s.close()
		return nil, 0, fmt.Errorf("%s: warm-up: %w", wl.name, w.firstErr)
	}
	return s, d, nil
}
