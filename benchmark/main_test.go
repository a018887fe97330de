package main

import (
	"context"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"bohrium/benchmark/ref"
	"bohrium/benchmark/span"
)

// testEnv builds the daemon once per test binary; every test that needs
// bhd shares it.
var sharedEnv *environment

func testEnv(t *testing.T) *environment {
	t.Helper()
	if sharedEnv == nil {
		env, err := newEnvironment()
		if err != nil {
			t.Fatal(err)
		}
		if env.bhdBin, err = buildDaemon(env.root); err != nil {
			t.Fatal(err)
		}
		sharedEnv = env
	}
	return sharedEnv
}

// smokeSizes is the test scale: the same code on arrays small enough for
// every workload to run in a second. Results at this scale are never
// written to a record file, so -compare cannot mix them with full scale.
var smokeSizes = sizes{stencilN: 64, fusedN: 4096, dispatchN: 256, coldMaxN: 500, bhdMaxN: 512, replayReps: 2, triadN: 1 << 16}

// smokeBatches is the window length of the smoke runs, per client. It is
// a multiple of every workload's period (3 for the 2:1 mixes, 8 for the
// bhd read cadence).
const smokeBatches = 24

func TestEveryWorkloadAtSmokeScale(t *testing.T) {
	env := testEnv(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rec, err := measureEndToEnd(context.Background(), wl, 7, smokeSizes, limit{batches: smokeBatches}, env)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted != segments*smokeBatches*wl.clients {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", rec.Correct, rec.Attempted, rec.Failed, rec.Error)
			}
			for _, d := range endToEnd {
				if v, ok := rec.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	env := testEnv(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rec, tr, err := measureLayers(context.Background(), wl, 7, smokeSizes, limit{batches: smokeBatches}, env)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("failed=%d of %d: %s", rec.Failed, rec.Attempted, rec.Error)
			}
			for _, d := range perLayer {
				if v, ok := rec.Metrics[d.name]; !ok || math.IsNaN(v.Value) || v.Value == math.MaxFloat64 {
					t.Errorf("%s = %+v, want a number", d.name, v)
				}
			}
			batch := tr.Totals["batch"]
			if batch.Count == 0 || batch.SelfNanos() < 0 || batch.SelfNanos() > batch.Nanos {
				t.Errorf("batch spans %+v: self time outside [0, total]", batch)
			}
			if tr.Totals["execute"].Count == 0 {
				t.Error("the layer replay recorded no execute span")
			}
			if len(rec.Shape) == 0 {
				t.Error("no workload-shape assertion printed")
			}
		})
	}
}

// A failing batch must reach the result: the run is reported incorrect
// and the percentile counts the batch as slower than every sample.
func TestWrongValueFailsTheRun(t *testing.T) {
	s, err := openFused(3, smokeSizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.(*fused).want *= 1.01
	w := runWindow(context.Background(), s, 1, []int{0}, limit{batches: 6}, nil)
	rec := &runRecord{}
	rec.settle(w, nil)
	if rec.Correct || rec.Failed != 6 || rec.failedShare() != 1 || w.percentile(0.5) != math.MaxFloat64 {
		t.Fatalf("correct=%v failed=%d p50=%v, want a fully failed window", rec.Correct, rec.Failed, w.percentile(0.5))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestBenchmarkFileMatchesRunner(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join(testEnv(t).root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, runner has %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		d := bf.Workloads[i]
		if d.Name != wl.name || d.Why != wl.why {
			t.Errorf("workload %d: file has %q (%q), runner %q (%q)", i, d.Name, d.Why, wl.name, wl.why)
		}
		if !nameRE.MatchString(d.Name) || len(d.Why) > 200 {
			t.Errorf("workload %q: name or why breaks the contract", d.Name)
		}
	}
	same := func(kind string, decls []metricDecl, defs []metricDef, bounded bool) {
		if len(decls) != len(defs) {
			t.Fatalf("%s: %d metrics declared, runner emits %d", kind, len(decls), len(defs))
		}
		seen := map[string]bool{}
		for i, def := range defs {
			d := decls[i]
			if d.Name != def.name || d.Unit != def.unit {
				t.Errorf("%s metric %d: file has %s [%s], runner %s [%s]", kind, i, d.Name, d.Unit, def.name, def.unit)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q [%s]: name or unit breaks the contract", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s metric %q: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" || bf.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s is declared as %+v", bf.EndToEnd[0])
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

// countMetrics must repeat exactly when the same seed runs the same
// number of batches.
var countMetrics = []string{"bytecodes_per_batch", "bc_before", "bc_after", "rule_applications", "passes",
	"sweeps", "elements", "fused_instructions", "fused_reductions", "plan_hit_ratio", "plan_evictions",
	"compulsory_bytes_per_batch", "listing_bytes"}

func TestSameSeedSameInputsAndCounts(t *testing.T) {
	coldHash := func(seed int64) string {
		var h []byte
		for i := 0; i < 200; i++ {
			s := drawCold(seed, i, fullSizes.coldMaxN)
			h = s.hash(h)
		}
		return string(h)
	}
	bhdHash := func(seed int64) string { return catalogueHash(buildCatalogue(seed, fullSizes.bhdMaxN)) }
	for name, hash := range map[string]func(int64) string{"cold-rewrite": coldHash, "bhd-tenants": bhdHash} {
		if hash(11) != hash(11) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if hash(11) == hash(12) {
			t.Errorf("%s: different seeds generated the same inputs", name)
		}
	}

	env := testEnv(t)
	// bhd's plan-cache counts depend on which tenant's request reaches the
	// shared cache first; its replay counts are still exact.
	racy := map[string]bool{"plan_hit_ratio": true, "plan_evictions": true, "sweeps": true, "elements": true,
		"fused_instructions": true, "fused_reductions": true}
	for _, wl := range workloads {
		var runs [2]*runRecord
		for i := range runs {
			rec, _, err := measureLayers(context.Background(), wl, 11, smokeSizes, limit{batches: smokeBatches}, env)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = rec
		}
		for _, m := range countMetrics {
			if wl.name == "bhd-tenants" && racy[m] {
				continue
			}
			if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
				t.Errorf("%s %s: %v then %v on the same seed", wl.name, m, a, b)
			}
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	tight := func(center float64) []float64 {
		return []float64{center * 0.999, center, center * 1.001, center, center}
	}
	wide := []float64{80, 90, 100, 110, 120}
	for _, c := range []struct {
		name     string
		old, cur []float64
		better   string
		want     verdict
	}{
		{"lower metric rose past the bound", tight(100), tight(107), "lower", regressed},
		{"lower metric fell past the bound", tight(100), tight(90), "lower", improved},
		{"inside the bound", tight(100), tight(103), "lower", unchanged},
		{"higher metric fell past the bound", tight(100), tight(93), "higher", regressed},
		{"higher metric rose past the bound", tight(100), tight(108), "higher", improved},
		{"spread wider than the bound", wide, tight(100), "lower", unresolved},
		{"a single value has no spread", []float64{100}, tight(100), "lower", unresolved},
	} {
		if got, _, _, _ := judge(c.old, c.cur, c.better, 0.05); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// compareRecords writes each side's records to a file and returns the
// exit code and output of -compare.
func compareRecords(t *testing.T, old, cur []*runRecord) (int, string) {
	t.Helper()
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")}
	for i, recs := range [][]*runRecord{old, cur} {
		if err := appendRecords(paths[i], recs); err != nil {
			t.Fatal(err)
		}
	}
	var out, errs strings.Builder
	code := compareFiles(&out, &errs, filepath.Join(testEnv(t).root, "BENCHMARK.json"), paths[0], paths[1])
	return code, out.String() + errs.String()
}

func TestCompareFiles(t *testing.T) {
	// One untraced record per workload whose every metric has the
	// segments center*{0.99, 1, 1.01, 1, 1} (or none, when bare).
	side := func(center float64, bare bool, skip string) []*runRecord {
		var recs []*runRecord
		for _, wl := range workloads {
			if wl.name == skip {
				continue
			}
			rec := &runRecord{Workload: wl.name, Attempted: 10, Correct: true, Metrics: map[string]metricValue{}}
			if !bare {
				rec.Segments = map[string][]float64{}
			}
			for _, d := range endToEnd {
				rec.Metrics[d.name] = metricValue{Value: center, Unit: d.unit}
				if !bare {
					rec.Segments[d.name] = []float64{center * 0.99, center, center * 1.01, center, center}
				}
			}
			recs = append(recs, rec)
		}
		return recs
	}
	if code, out := compareRecords(t, side(100, false, ""), side(101, false, "")); code != 0 || strings.Contains(out, string(unresolved)) {
		t.Errorf("one run per side with segments: exit %d\n%s", code, out)
	}
	if code, out := compareRecords(t, side(100, true, ""), side(101, true, "")); code != 0 || !strings.Contains(out, string(unresolved)) {
		t.Errorf("one run per side without segments must be unresolved: exit %d\n%s", code, out)
	}
	if code, out := compareRecords(t, side(100, false, ""), side(100, false, "cold-rewrite")); code == 0 || !strings.Contains(out, "a side is missing") {
		t.Errorf("a workload without a record on one side must fail the comparison: exit %d\n%s", code, out)
	}
	failing := side(100, false, "")
	failing[0].Failed = 1
	if code, _ := compareRecords(t, side(100, false, ""), failing); code == 0 {
		t.Error("a rise in failed_share must fail the comparison")
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := span.NewRecorder(time.Now(), 0, 2)
	r.SetBatch(5)
	r.Begin("batch")
	r.Begin("record")
	time.Sleep(time.Millisecond)
	r.End()
	r.Begin("flush") // beyond the keep limit: totalled, not kept
	time.Sleep(time.Millisecond)
	r.End()
	r.End()
	tr := span.Merge("w", 1, []*span.Recorder{r})
	if len(tr.Spans) != 2 || tr.Dropped != 1 || tr.Spans[1].Parent != 0 || tr.Spans[1].Batch != 5 {
		t.Fatalf("spans %+v dropped %d", tr.Spans, tr.Dropped)
	}
	batch := tr.Totals["batch"]
	if children := tr.Totals["record"].Nanos + tr.Totals["flush"].Nanos; batch.ChildNanos != children || batch.SelfNanos() < 0 {
		t.Errorf("batch %+v, children sum %d", batch, children)
	}
}

func TestReferences(t *testing.T) {
	// An odd and an even sweep count must both land in the caller's slice.
	for _, sweeps := range []int{1, 2} {
		g := []float64{0, 0, 0, 0, 5, 0, 0, 0, 0}
		ref.Heat2D(g, 3, sweeps)
		want := 5.0
		for i := 0; i < sweeps; i++ {
			want *= 0.2
		}
		if g[4] != want {
			t.Errorf("Heat2D %d sweeps: centre %v, want %v", sweeps, g[4], want)
		}
		u := []float64{1, 0, 3}
		ref.Jacobi1D(u, []float64{0, 2, 0}, sweeps)
		if u[1] != 3 {
			t.Errorf("Jacobi1D %d sweeps: %v", sweeps, u)
		}
	}
	a := []float64{2, 0, 0, 4}
	if r := ref.Residual(a, []float64{1, 1}, []float64{2, 4}, 2, 1); r != 0 {
		t.Errorf("exact solution has residual %v", r)
	}
	if r := ref.Residual(a, []float64{1, 2}, []float64{2, 4}, 2, 1); r != 1 {
		t.Errorf("wrong solution has residual %v, want 1", r)
	}
}
