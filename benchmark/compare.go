package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// -compare reads two files of run records (-out appends them, so a file
// may hold several runs of each workload) and judges every pairing of
// end-to-end metric and workload by the bound BENCHMARK.json fixes.

func readRecords(path string) ([]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []*runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &runRecord{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		records = append(records, rec)
	}
	return records, sc.Err()
}

// quartiles returns the first quartile, median and third quartile by the
// rule of Python's statistics.quantiles(values, n=4) (exclusive method),
// the rule the acceptance check of this benchmark uses. A single value
// is its own median (judge refuses to read a spread from it).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares a metric's medians. worse is the share of the old
// median by which the new one is worse (negative: better). A spread —
// interquartile range over median — wider than the bound on either side
// means the runs cannot resolve a change of the bound's size, and so
// does a side with a single value, which has no spread to read.
func judge(old, cur []float64, better string, bound float64) (v verdict, ratio, spreadOld, spreadCur float64) {
	o1, o2, o3 := quartiles(old)
	c1, c2, c3 := quartiles(cur)
	ratio = c2 / o2
	spreadOld, spreadCur = (o3-o1)/o2, (c3-c1)/c2
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case len(old) < 2 || len(cur) < 2 || spreadOld > bound || spreadCur > bound:
		v = unresolved
	case worse > bound:
		v = regressed
	case worse < -bound:
		v = improved
	default:
		v = unchanged
	}
	return v, ratio, spreadOld, spreadCur
}

// compareFiles prints one row per (metric, workload) and returns the exit
// code: non-zero on any regression, any rise in the failed share, and any
// workload or metric that one file lacks (a crashed run leaves no record).
func compareFiles(stdout, stderr io.Writer, benchmarkJSON, oldPath, newPath string) int {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var sides [2][]*runRecord
	for i, path := range []string{oldPath, newPath} {
		sides[i], err = readRecords(path)
		if err == nil && len(sides[i]) == 0 {
			err = fmt.Errorf("%s: no records", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}

	// values[file][workload][metric] lists the untraced runs' values;
	// failed shares come from every run. A workload with a single run is
	// judged on that run's per-segment values instead — their median is
	// the run's value — so one run per side still shows its spread.
	type table map[string]map[string][]float64
	collect := func(records []*runRecord) (table, map[string]float64) {
		t, failed := table{}, map[string]float64{}
		only := map[string]*runRecord{}
		for _, rec := range records {
			failed[rec.Workload] = math.Max(failed[rec.Workload], rec.failedShare())
			if rec.Traced {
				continue
			}
			if t[rec.Workload] == nil {
				t[rec.Workload] = map[string][]float64{}
				only[rec.Workload] = rec
			} else {
				delete(only, rec.Workload)
			}
			for name, v := range rec.Metrics {
				t[rec.Workload][name] = append(t[rec.Workload][name], v.Value)
			}
		}
		for wl, rec := range only {
			for name, seg := range rec.Segments {
				if len(seg) >= 2 {
					t[wl][name] = seg
				}
			}
		}
		return t, failed
	}
	oldT, oldFailed := collect(sides[0])
	newT, newFailed := collect(sides[1])

	bad := false
	fmt.Fprintf(stdout, "%-15s %-14s %14s %14s %22s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "ratio (new/old)", "bound", "iqr old", "iqr new", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			old, cur := oldT[wl.Name][m.Name], newT[wl.Name][m.Name]
			if len(old) == 0 || len(cur) == 0 {
				fmt.Fprintf(stdout, "%-15s %-14s %s: %d old and %d new values, a side is missing\n", wl.Name, m.Name, regressed, len(old), len(cur))
				bad = true
				continue
			}
			v, ratio, so, sc := judge(old, cur, m.Better, m.Bound)
			om, cm := median(old), median(cur)
			fmt.Fprintf(stdout, "%-15s %-14s %14.6g %14.6g %10.4f of %-8.6g %6.0f%% %7.1f%% %7.1f%%  %s (%d vs %d values, %s is better)\n",
				wl.Name, m.Name, om, cm, ratio, om, 100*m.Bound, 100*so, 100*sc, v, len(old), len(cur), m.Better)
			bad = bad || v == regressed
		}
		of, nf := oldFailed[wl.Name], newFailed[wl.Name]
		v := unchanged
		if nf > of {
			v, bad = regressed, true
		}
		fmt.Fprintf(stdout, "%-15s %-14s %14.6g %14.6g %22s %7s %8s %8s  %s\n", wl.Name, "failed_share", of, nf, "must stay 0", "", "", "", v)
	}
	if bad {
		return 1
	}
	return 0
}
