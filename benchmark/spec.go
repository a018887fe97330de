package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric and its unit. The two tables below are the
// runner's side of the contract in BENCHMARK.json; a test keeps the file
// and the tables identical.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees, per workload. A batch
// is one recorded-and-flushed byte-code program, or one HTTP batch/read
// request against bhd.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"batches_per_s", "batches/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p95_ms", "ms"},
}

// perLayer lists the single-layer metrics of the traced run and the
// layer replay, grouped by the module they belong to.
var perLayer = []metricDef{
	// bohrium front end: recording, flush, read.
	{"record_us_per_batch", "us"},
	{"bytecodes_per_batch", "count"},
	{"flush_us_per_batch", "us"},
	{"read_us_per_batch", "us"},
	// internal/bytecode.
	{"parse_us", "us"},
	{"validate_us", "us"},
	{"fingerprint_us", "us"},
	{"listing_bytes", "bytes"},
	// internal/rewrite.
	{"rewrite_us_per_batch", "us"},
	{"bc_before", "count"},
	{"bc_after", "count"},
	{"rule_applications", "count"},
	{"passes", "count"},
	// internal/vm: compile and plan cache.
	{"compile_us_per_batch", "us"},
	{"lookup_us", "us"},
	{"plan_hit_ratio", "ratio"},
	{"plan_evictions", "count"},
	// internal/vm: execute.
	{"execute_us_per_batch", "us"},
	{"sweeps", "count"},
	{"elements", "count"},
	{"fused_instructions", "count"},
	{"fused_reductions", "count"},
	{"compulsory_bytes_per_batch", "bytes"},
	{"gb_per_s_compulsory", "GB/s"},
	{"triad_gb_per_s", "GB/s"},
	{"pct_of_triad", "%"},
	// internal/backend.
	{"tensor_read_us", "us"},
	{"buffers_alloc", "count"},
	{"bytes_alloc", "bytes"},
	{"pool_hit_ratio", "ratio"},
	// internal/server with its middleware and api.
	{"http_overhead_us", "us"},
	{"shed_share", "ratio"},
	{"retries", "count"},
	{"server_plan_hits", "count"},
	{"server_live_bytes", "bytes"},
	// Go runtime.
	{"alloc_bytes_per_batch", "bytes"},
	{"gc_cycles", "count"},
	{"peak_rss_mb", "MiB"},
	// The trace itself.
	{"trace_overhead_pct", "%"},
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
