package bohrium

import (
	"math"
	"regexp"
	"testing"
)

// This file is the front-end half of the differential contract: fused
// and unfused execution, synchronous and async, must be value- and
// error-identical, observed purely through the public API. The
// internal/vm and internal/backend packages pin the same contract at the
// program level; here whole sessions — multi-flush loops, plan-cache
// hits, async pipelines, reductions, linear algebra — run four times and
// must agree bit for bit.

// diffConfigs returns the four configurations a differential workload
// runs under: fused and unfused, each synchronous and async.
func diffConfigs() []Config {
	return []Config{
		{},
		{Async: true},
		{DisableFusion: true},
		{DisableFusion: true, Async: true},
	}
}

func diffRun(t *testing.T, work func(ctx *Context) []float64) {
	t.Helper()
	var ref []float64
	for _, cfg := range diffConfigs() {
		ctx := NewContext(&cfg)
		got := work(ctx)
		ctx.Close()
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("unfused=%v async=%v: %d values, want %d", cfg.DisableFusion, cfg.Async, len(got), len(ref))
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("unfused=%v async=%v: value[%d] = %v (%x), want %v (%x)",
					cfg.DisableFusion, cfg.Async, i, got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
			}
		}
	}
}

// TestDifferentialIterativeChain: a multi-flush iterative workload —
// elementwise chains, reductions, and repeated structurally identical
// batches that exercise the plan cache in every configuration.
func TestDifferentialIterativeChain(t *testing.T) {
	diffRun(t, func(ctx *Context) []float64 {
		const n = 10240
		a := ctx.Arange(n)
		a.MulC(1.0 / n).AddC(0.25)
		var out []float64
		for iter := 0; iter < 4; iter++ {
			b := a.Times(a).Keep()
			b.AddC(1).Sqrt().MulC(0.5)
			s, err := b.Sum().Scalar()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
			a.Add(b).MulC(0.5)
			b.Free()
		}
		return append(out, a.MustData()...)
	})
}

// TestDifferentialRandomReduction: generator byte-codes (BH_RANDOM,
// BH_RANGE) index the whole array; the deterministic counter stream must
// land identically whether or not the chain behind them fuses.
func TestDifferentialRandomReduction(t *testing.T) {
	diffRun(t, func(ctx *Context) []float64 {
		r := ctx.Random(42, 4096)
		r.MulC(2).SubC(1)
		m, err := r.Mean().Scalar()
		if err != nil {
			t.Fatal(err)
		}
		mx, err := r.Abs().Max().Scalar()
		if err != nil {
			t.Fatal(err)
		}
		return []float64{m, mx}
	})
}

// TestDifferentialLinalg: extension byte-codes (BH_SOLVE via the
// inverse→solve rewrite) run through the interpreter; results must agree.
func TestDifferentialLinalg(t *testing.T) {
	diffRun(t, func(ctx *Context) []float64 {
		a := ctx.MustFromSlice([]float64{4, 1, 0, 1, 3, 1, 0, 1, 2}, 3, 3)
		b := ctx.MustFromSlice([]float64{1, 2, 3}, 3, 1)
		x := a.Inverse().MatMul(b)
		y := a.Solve(ctx.MustFromSlice([]float64{3, 1, 4}, 3))
		return append(x.MustData(), y.MustData()...)
	})
}

// TestDifferentialSliced2D: strided and partial views (slices, transposed
// reads, axis reductions) must agree exactly fused and unfused.
func TestDifferentialSliced2D(t *testing.T) {
	diffRun(t, func(ctx *Context) []float64 {
		a := ctx.Arange(2048)
		m, err := a.Reshape(32, 64)
		if err != nil {
			t.Fatal(err)
		}
		m.MulC(0.125).Sin()
		col := m.SumAxis(0)
		row := m.SumAxis(1)
		inner, err := m.MustSlice(0, 4, 28, 2).Sum().Scalar()
		if err != nil {
			t.Fatal(err)
		}
		return append(append(col.MustData(), row.MustData()...), inner)
	})
}

// clusterPrefix is the part of an execution error that names the failing
// cluster, which only fused execution has.
var clusterPrefix = regexp.MustCompile(`cluster \[\d+,\d+\): `)

// TestDifferentialErrorText: a singular solve must fail with the
// character-identical error sync and async, and fused execution must say
// what unfused execution says, only naming the failing cluster first — so
// callers can match on error text without caring how the batch ran.
func TestDifferentialErrorText(t *testing.T) {
	refs := map[bool]string{} // by DisableFusion
	for _, cfg := range diffConfigs() {
		ctx := NewContext(&cfg)
		a := ctx.MustFromSlice([]float64{1, 2, 2, 4}, 2, 2) // singular
		b := ctx.MustFromSlice([]float64{1, 1}, 2)
		x := a.Solve(b)
		_, err := x.Data()
		if err == nil {
			t.Fatalf("unfused=%v async=%v: singular solve succeeded", cfg.DisableFusion, cfg.Async)
		}
		// The pipeline error is sticky in both modes.
		if err2 := ctx.Flush(); err2 == nil {
			t.Fatalf("unfused=%v async=%v: error not sticky", cfg.DisableFusion, cfg.Async)
		}
		ctx.Close()
		if ref, ok := refs[cfg.DisableFusion]; !ok {
			refs[cfg.DisableFusion] = err.Error()
		} else if err.Error() != ref {
			t.Fatalf("unfused=%v async=%v error text:\n  got  %s\n  want %s", cfg.DisableFusion, cfg.Async, err.Error(), ref)
		}
	}
	if fused := clusterPrefix.ReplaceAllString(refs[false], ""); fused != refs[true] {
		t.Fatalf("fused and unfused error texts differ:\n  fused:   %s\n  unfused: %s", refs[false], refs[true])
	}
}

// TestBackendSharedRuntime: a fused and an unfused session share one
// Runtime (one plan cache, one recycle pool) without serving each other's
// plans — and still agree bit for bit.
func TestBackendSharedRuntime(t *testing.T) {
	rt := NewRuntime(nil)
	defer rt.Close()
	run := func(cfg Config) ([]float64, int) {
		ctx := rt.NewContext(&cfg)
		defer ctx.Close()
		a := ctx.Arange(2048)
		a.MulC(0.5).AddC(2).Sqrt()
		return a.MustData(), ctx.MustStats().PlanHits
	}
	ref, _ := run(Config{})
	got, hits := run(Config{DisableFusion: true})
	if hits != 0 {
		t.Errorf("the unfused session hit %d fused plans", hits)
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("value[%d] = %v, want %v", i, got[i], ref[i])
		}
	}
}
