package vm_test

import (
	"os"
	"path/filepath"
	"testing"

	"bohrium"
	"bohrium/internal/bench"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// TestElementwisePlansHaveNests: with fusion on and off, every cluster
// that holds an instruction other than a system or extension byte-code
// compiles to a nest — nothing is left to an interpreter — in every
// committed examples/*/listing.bh, the E7 programs, and every plan the E5
// workloads execute, optimized and not.
func TestElementwisePlansHaveNests(t *testing.T) {
	check := func(name string, pl *vm.Plan) {
		t.Helper()
		for _, in := range vm.Unnested(pl) {
			t.Errorf("%s: %s has no nest", name, in)
		}
	}
	listings, err := filepath.Glob("../../examples/*/listing.bh")
	if err != nil || len(listings) != 7 {
		t.Fatalf("listings %v: %v", listings, err)
	}
	progs := map[string]*bytecode.Program{}
	for _, path := range listings {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if progs[path], err = bytecode.Parse(string(src)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		progs["E7 black-scholes-"+dt.String()] = bench.BlackScholesProgram(dt, 4096)
	}
	for _, dt := range []tensor.DType{tensor.Int64, tensor.Int32} {
		progs["E7 checksum-"+dt.String()] = bench.ChecksumProgram(dt, 4096)
	}
	for _, fusion := range []bool{false, true} {
		m := vm.New(vm.Config{Fusion: fusion})
		for name, p := range progs {
			pl, err := m.Compile(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, pl)
		}
		m.Close()

		for _, opt := range []*rewrite.Options{nil, {}} {
			rt := bohrium.NewRuntime(nil)
			ctx := rt.NewContext(&bohrium.Config{Optimizer: opt, DisableFusion: !fusion})
			for name, run := range map[string]func(*bohrium.Context) (float64, error){
				"heat-2d":       func(c *bohrium.Context) (float64, error) { return bench.Heat2D(c, 16, 3) },
				"black-scholes": func(c *bohrium.Context) (float64, error) { return bench.BlackScholes(c, 4096) },
				"leibniz-pi":    func(c *bohrium.Context) (float64, error) { return bench.LeibnizPi(c, 4096) },
				"montecarlo-pi": func(c *bohrium.Context) (float64, error) { return bench.MonteCarloPi(c, 4096) },
			} {
				if _, err := run(ctx); err != nil {
					t.Fatalf("E5 %s: %v", name, err)
				}
			}
			plans := vm.CachedPlans(rt.Engine())
			if len(plans) == 0 {
				t.Fatal("the E5 workloads left no plan in the cache")
			}
			for _, pl := range plans {
				check("E5", pl)
			}
			ctx.Close()
			rt.Close()
		}
	}
}
