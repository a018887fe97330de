package main

import (
	"strings"
	"testing"
)

func TestBhrunExecutesListing2(t *testing.T) {
	src := `BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
`
	var out strings.Builder
	if err := run(nil, strings.NewReader(src), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a0 = [3 3 3 3 3 3 3 3 3 3]") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestBhrunOptimizedMatchesRaw(t *testing.T) {
	src := `.reg a0 float64 8
.reg a1 float64 8
BH_IDENTITY a0 2.0
BH_POWER a1 a0 10
BH_SYNC a1
`
	var raw, opt strings.Builder
	if err := run(nil, strings.NewReader(src), &raw); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-O"}, strings.NewReader(src), &opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw.String(), "1024") || !strings.Contains(opt.String(), "1024") {
		t.Errorf("raw:\n%s\nopt:\n%s", raw.String(), opt.String())
	}
}

func TestBhrunTraceShowsStats(t *testing.T) {
	src := `.reg a0 float64 8
BH_IDENTITY a0 1
BH_SYNC a0
`
	var out strings.Builder
	if err := run([]string{"-trace"}, strings.NewReader(src), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# stats:") {
		t.Errorf("missing stats footer:\n%s", out.String())
	}
}

func TestBhrunRejectsInvalid(t *testing.T) {
	if err := run(nil, strings.NewReader("BH_ADD a0 [0:4:1] a0 [0:4:1] 1"), &strings.Builder{}); err == nil {
		t.Error("use-before-def accepted")
	}
}

func TestBhrunRepeatHitsPlanCache(t *testing.T) {
	src := `.reg a0 float64 8
BH_IDENTITY a0 1
BH_ADD a0 a0 2
BH_SYNC a0
`
	var out strings.Builder
	if err := run([]string{"-trace", "-repeat", "3"}, strings.NewReader(src), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# plans: 2 hits, 1 misses") {
		t.Errorf("repeat runs did not hit the plan cache:\n%s", got)
	}
	if !strings.Contains(got, "a0 = [3 3 3 3 3 3 3 3]") {
		t.Errorf("repeated execution changed the result:\n%s", got)
	}
}

// TestBhrunExecutionModesAgree runs one listing sync and async, fused
// and unfused, and requires byte-identical output — the CLI face of the
// differential contract.
func TestBhrunExecutionModesAgree(t *testing.T) {
	src := `.reg a0 float64 1000
.reg a1 float64 1000
.reg a2 float64 1
BH_RANGE a0
BH_MULTIPLY a1 a0 0.001
BH_ADD a1 a1 1.5
BH_SQRT a1 a1
BH_ADD_REDUCE a2 [0:1:1] a1 axis=0
BH_SYNC a1
BH_SYNC a2
`
	var ref string
	for _, args := range [][]string{nil, {"-async"}, {"-no-fusion"}, {"-no-fusion", "-async"}} {
		var out strings.Builder
		if err := run(args, strings.NewReader(src), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if ref == "" {
			ref = out.String()
		} else if out.String() != ref {
			t.Errorf("%v output differs:\n%s\nwant:\n%s", args, out.String(), ref)
		}
	}
}

// TestBhrunUnknownBackend: there is one engine, so a script that still
// picks a backend fails loudly instead of running on a default it did
// not ask for.
func TestBhrunUnknownBackend(t *testing.T) {
	src := ".reg a0 float64 4\nBH_IDENTITY a0 1\nBH_SYNC a0\n"
	err := run([]string{"-backend", "gpu"}, strings.NewReader(src), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -backend") {
		t.Fatalf("err = %v, want an undefined-flag error", err)
	}
}

func TestBhrunAsyncMatchesSync(t *testing.T) {
	src := `.reg a0 float64 8
BH_IDENTITY a0 1
BH_ADD a0 a0 2
BH_SYNC a0
`
	var out strings.Builder
	if err := run([]string{"-trace", "-repeat", "4", "-async"}, strings.NewReader(src), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "a0 = [3 3 3 3 3 3 3 3]") {
		t.Errorf("async execution result wrong:\n%s", got)
	}
	if !strings.Contains(got, "# pipeline: 4 plans executed asynchronously") {
		t.Errorf("async repeats did not go through the executor:\n%s", got)
	}
	if !strings.Contains(got, "# plans: 3 hits, 1 misses") {
		t.Errorf("async repeats bypassed the plan cache:\n%s", got)
	}
}

// TestBhrunOptimizerReportOnce pins -O going through the plan resolver:
// only a cache miss optimizes, so repeats print the optimizer report
// once and replay the plan, and k sessions on one shared engine report
// the same optimization as one session.
func TestBhrunOptimizerReportOnce(t *testing.T) {
	src := `.reg a0 float64 8
.reg a1 float64 8
BH_IDENTITY a0 2.0
BH_POWER a1 a0 10
BH_SYNC a1
`
	trace := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		if err := run(append([]string{"-O", "-trace"}, args...), strings.NewReader(src), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	optimizerLine := func(out string) string {
		t.Helper()
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "# optimizer:") {
				lines = append(lines, l)
			}
		}
		if len(lines) != 1 {
			t.Fatalf("%d optimizer lines, want exactly 1:\n%s", len(lines), out)
		}
		return lines[0]
	}

	repeated := trace("-repeat", "3")
	optimizerLine(repeated)
	if !strings.Contains(repeated, "# plans: 2 hits, 1 misses") {
		t.Errorf("-O repeats did not replay the plan:\n%s", repeated)
	}
	single, shared := trace("-sessions", "1"), trace("-sessions", "3", "-shared")
	if optimizerLine(shared) != optimizerLine(single) {
		t.Errorf("shared sessions report a different optimization:\n%s\nwant:\n%s", shared, single)
	}
}
