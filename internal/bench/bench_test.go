package bench

import (
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"bohrium"
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// tinyScale keeps unit-test runs fast; the experiment *shapes* (who wins)
// hold at any scale, which is itself part of what we assert.
func tinyScale() Scale {
	return Scale{VectorN: 1 << 12, SolveMax: 32, Repeats: 1}
}

func TestWorkloadProgramsValidate(t *testing.T) {
	progs := map[string]interface{ Validate() error }{
		"add-merge":       AddMergeProgram(8, 100, tensor.Float64),
		"add-merge-noisy": AddMergeNoisyProgram(8, 100, tensor.Int64),
		"power":           PowerProgram(10, 100),
		"solve":           SolveProgram(8),
	}
	for name, p := range progs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHeat2DConverges(t *testing.T) {
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()
	v, err := Heat2D(ctx, 24, 200)
	if err != nil {
		t.Fatal(err)
	}
	// With a single hot boundary at 100, interior settles strictly
	// between 0 and 100 and well above 0 after 200 sweeps.
	if v <= 0.1 || v >= 100 {
		t.Errorf("center temperature = %v, want in (0.1, 100)", v)
	}
}

func TestHeat2DOptimizerEquivalence(t *testing.T) {
	plain := bohrium.NewContext(&bohrium.Config{DisableFusion: true})
	defer plain.Close()
	vPlain, err := Heat2D(plain, 16, 50)
	if err != nil {
		t.Fatal(err)
	}
	fused := bohrium.NewContext(nil)
	defer fused.Close()
	vFused, err := Heat2D(fused, 16, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vPlain-vFused) > 1e-9 {
		t.Errorf("heat results differ: %v vs %v", vPlain, vFused)
	}
}

func TestBlackScholesPlausible(t *testing.T) {
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()
	v, err := BlackScholes(ctx, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// ATM-ish calls on spots 80-120, strike 100: mean price in a sane band.
	if v < 1 || v > 40 {
		t.Errorf("mean option price = %v, want in [1, 40]", v)
	}
}

func TestLeibnizPi(t *testing.T) {
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()
	v, err := LeibnizPi(ctx, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Pi) > 1e-4 {
		t.Errorf("Leibniz pi = %v", v)
	}
}

func TestMonteCarloPi(t *testing.T) {
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()
	v, err := MonteCarloPi(ctx, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Pi) > 0.05 {
		t.Errorf("Monte Carlo pi = %v", v)
	}
}

func TestE1Shape(t *testing.T) {
	rows, err := E1AddMerge(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		// k adds + identity + sync collapse to 3 byte-codes.
		if r.BytecodesAfter != 3 {
			t.Errorf("%s %s: after = %d, want 3", r.Workload, r.Params, r.BytecodesAfter)
		}
		if r.BytecodesBefore <= r.BytecodesAfter {
			t.Errorf("%s %s: no byte-code reduction", r.Workload, r.Params)
		}
	}
}

func TestE2Shape(t *testing.T) {
	rows, err := E2PowerChain(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// Paper-exact chain lengths: 9 (Listing 4), 5 (Listing 5), 4 (binary);
	// programs carry IDENTITY + chain + SYNC.
	wantAfter := []int{11, 7, 6}
	for i, r := range rows {
		if r.BytecodesAfter != wantAfter[i] {
			t.Errorf("row %d (%s): after = %d, want %d", i, r.Note, r.BytecodesAfter, wantAfter[i])
		}
	}
}

// TestE3NotesAreStructural: an E3 note is the chain's multiply count and
// nothing else. Which side won is the row's speedup, a timing that can
// flip from run to run; the note must not repeat it.
func TestE3NotesAreStructural(t *testing.T) {
	rows, err := E3PowerSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("E3 produced no rows")
	}
	muls := regexp.MustCompile(`^\d+ muls$`)
	for _, r := range rows {
		if !muls.MatchString(r.Note) {
			t.Errorf("%s %s: note %q, want \"<n> muls\"", r.Workload, r.Params, r.Note)
		}
	}
}

func TestE4Shape(t *testing.T) {
	rows, err := E4Solve(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// INVERSE+MATMUL (plus SYNC) becomes SOLVE (plus SYNC).
		if r.BytecodesAfter >= r.BytecodesBefore {
			t.Errorf("%s: no shrink (%d -> %d)", r.Params, r.BytecodesBefore, r.BytecodesAfter)
		}
	}
}

func TestE6D1GapToleranceWins(t *testing.T) {
	rows, err := E6Ablations(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	var d1 *Row
	for i := range rows {
		if rows[i].Experiment == "E6/D1" {
			d1 = &rows[i]
		}
	}
	if d1 == nil {
		t.Fatal("no D1 row")
	}
	// Adjacent-only merges nothing on the noisy stream; gap tolerance
	// merges all 7 pairs.
	if !strings.Contains(d1.Note, "adjacent-only merged 0") {
		t.Errorf("D1 note = %q", d1.Note)
	}
	if !strings.Contains(d1.Note, "gap-tolerant merged 7") {
		t.Errorf("D1 note = %q", d1.Note)
	}
}

func TestE5ValuesAgree(t *testing.T) {
	rows, err := E5Workloads(Scale{VectorN: 1 << 14, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if strings.Contains(r.Note, "MISMATCH") {
			t.Errorf("%s: %s", r.Workload, r.Note)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	rows, err := E2PowerChain(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	out := Table(rows)
	if !strings.Contains(out, "E2") || !strings.Contains(out, "speedup") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestE7DTypeWorkloads(t *testing.T) {
	// The dtype workloads must validate, produce identical results fused
	// and unfused (bit-equal: the epilogue folds with the strategy of the
	// lone fold nest), and actually fire the reduction epilogue.
	progs := map[string]*bytecode.Program{
		"black-scholes-float64": BlackScholesProgram(tensor.Float64, 4096),
		"black-scholes-float32": BlackScholesProgram(tensor.Float32, 4096),
		"checksum-int64":        ChecksumProgram(tensor.Int64, 4096),
		"checksum-int32":        ChecksumProgram(tensor.Int32, 4096),
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			out := bytecode.RegID(len(p.Regs) - 1)
			view := tensor.NewView(tensor.MustShape(1))
			values := make([]float64, 2)
			for i, fusion := range []bool{false, true} {
				m := vm.New(vm.Config{Fusion: fusion})
				defer m.Close()
				if err := m.Run(p.Clone()); err != nil {
					t.Fatalf("fusion=%v: %v", fusion, err)
				}
				tt, ok := m.Tensor(out, view)
				if !ok {
					t.Fatalf("fusion=%v: result register missing", fusion)
				}
				values[i] = tt.Buf.Get(0)
				if fusion && m.Stats().FusedReductions != 1 {
					t.Errorf("FusedReductions = %d, want 1", m.Stats().FusedReductions)
				}
			}
			if values[0] != values[1] {
				t.Errorf("fused %v != unfused %v", values[1], values[0])
			}
			if strings.HasPrefix(name, "black-scholes") {
				// Mean call price for spots 80-120, strike 100: sane band.
				if values[0] < 1 || values[0] > 40 {
					t.Errorf("mean option price = %v, want in [1, 40]", values[0])
				}
			}
		})
	}
}

func TestE7Shape(t *testing.T) {
	rows, err := E7DTypeFusion(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.FusedReductions < 1 {
			t.Errorf("%s: FusedReductions = %d, want >= 1", r.Workload, r.FusedReductions)
		}
		if !strings.Contains(r.Note, "fused ") {
			t.Errorf("%s: note %q lacks per-dtype counts", r.Workload, r.Note)
		}
	}
}

// TestJSONSchema locks the BENCH_*.json document shape tools depend on.
func TestJSONSchema(t *testing.T) {
	rows := []Row{{
		Experiment: "E5", Workload: "w", Params: "p",
		Baseline: 2000, BaselineMAD: 30, Optimized: 1000, OptimizedMAD: 20, Speedup: 2,
		PlanHits: 9, PlanMisses: 1, Note: "n",
	}}
	data, err := JSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"schema": "bohrium-bench/v2"`, `"rows"`, `"experiment": "E5"`, `"backend": "inprocess"`,
		`"baseline_ns": 2000`, `"baseline_mad_ns": 30`,
		`"optimized_ns": 1000`, `"optimized_mad_ns": 20`,
		`"plan_hits": 9`, `"plan_misses": 1`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s:\n%s", want, data)
		}
	}
	for _, gone := range []string{"roofline_gbs", "pct_roof", `"gbs"`, "pipelined", "xplan_fused", "sessions", "baseline_allocs"} {
		if strings.Contains(string(data), gone) {
			t.Errorf("JSON still carries %s:\n%s", gone, data)
		}
	}
	// The generated document must satisfy its own schema guard.
	if err := CheckSchema(data); err != nil {
		t.Errorf("fresh document fails CheckSchema: %v", err)
	}
	// A v1 document is refused.
	v1 := strings.Replace(string(data), Schema, "bohrium-bench/v1", 1)
	if err := CheckSchema([]byte(v1)); err == nil {
		t.Error("CheckSchema accepted a bohrium-bench/v1 document")
	}
}

// TestMeasureMedianAndMAD pins the timing statistic: the median of the
// runs and the median absolute deviation around it, with one run a single
// sample of zero deviation.
func TestMeasureMedianAndMAD(t *testing.T) {
	cases := []struct {
		runs     []time.Duration
		med, mad time.Duration
	}{
		{[]time.Duration{5}, 5, 0},
		{[]time.Duration{9, 1, 5}, 5, 4},
		{[]time.Duration{10, 12, 11, 100, 13, 9, 10}, 11, 1},
		{[]time.Duration{4, 1, 3, 2}, 2, 1},
	}
	for _, c := range cases {
		got := summarize(slices.Clone(c.runs))
		if got.median != c.med || got.mad != c.mad {
			t.Errorf("%v: median %v mad %v, want %v %v", c.runs, got.median, got.mad, c.med, c.mad)
		}
	}
	calls := 0
	got, err := measure(7, func() error { calls++; return nil })
	if err != nil || calls != 7 {
		t.Fatalf("measure ran %d times (err %v), want 7", calls, err)
	}
	if got.median <= 0 || got.mad < 0 {
		t.Errorf("measure = %+v", got)
	}
	one, err := measure(1, func() error { return nil })
	if err != nil || one.mad != 0 {
		t.Errorf("one run: %+v, %v; want zero deviation", one, err)
	}
}
