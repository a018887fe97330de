package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestBhbenchSingleExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "E2", "-n", "4096", "-repeats", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "E2") || !strings.Contains(got, "Listing 5") {
		t.Errorf("output:\n%s", got)
	}
}

func TestBhbenchUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "E99"}, &strings.Builder{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestBhbenchJSONAndPlanSmoke writes the E5 rows, the ones that go
// through the front end's plan cache, reads them back, and round-trips
// the document through -schema-check. Every row names the one engine.
func TestBhbenchJSONAndPlanSmoke(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	var out strings.Builder
	err := run([]string{"-experiment", "E5", "-n", "16384", "-repeats", "1",
		"-json", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "plan") {
		t.Errorf("table missing plan column:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Rows   []struct {
			Experiment string `json:"experiment"`
			Backend    string `json:"backend"`
			PlanMisses int    `json:"plan_misses"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Schema != "bohrium-bench/v2" || len(doc.Rows) == 0 {
		t.Errorf("unexpected document: %+v", doc)
	}
	for _, r := range doc.Rows {
		if r.Experiment != "E5" || r.Backend != "inprocess" || r.PlanMisses == 0 {
			t.Errorf("row %+v: want an inprocess E5 row that went through the plan cache", r)
		}
	}

	var check strings.Builder
	if err := run([]string{"-schema-check", path}, &check); err != nil {
		t.Fatalf("schema-check rejected fresh document: %v", err)
	}
	if !strings.Contains(check.String(), "valid bohrium-bench/v2") {
		t.Errorf("schema-check output:\n%s", check.String())
	}
}

func TestBhbenchSchemaCheckRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/bad.json"
	if err := os.WriteFile(path, []byte(`{"schema":"bohrium-bench/v2","rows":[{"experiment":"E1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-schema-check", path}, &strings.Builder{}); err == nil {
		t.Error("schema-check accepted a row missing required fields")
	}
}

// TestBhbenchRejectsOutOfRangeFlags: a size or repeat count out of range is a flag error before any experiment runs, not a panic
// or a table of NaN speedups.
func TestBhbenchRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, val string }{
		{"-n", "-4"},
		{"-repeats", "-1"},
		{"-repeats", "0"},
		{"-solve-max", "0"},
	} {
		t.Run(tc.flag+"="+tc.val, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{"-experiment", "E1", "-n", "1024", "-repeats", "1",
				"-json", t.TempDir() + "/x.json", tc.flag, tc.val}, &out)
			if err == nil || !strings.Contains(err.Error(), tc.flag+" "+tc.val) {
				t.Fatalf("err = %v, want a %s flag error", err, tc.flag)
			}
			if out.Len() != 0 {
				t.Errorf("an experiment ran:\n%s", out.String())
			}
		})
	}
}
