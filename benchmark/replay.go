package main

import (
	"fmt"
	"sort"
	"time"

	"bohrium"
	"bohrium/benchmark/span"
	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// The layer replay takes the batches a workload issues in steady state
// and times each layer's public entry point on them in isolation, on a
// backend of the benchmark's own: the program under test carries no
// timers, so this is how a batch's time is attributed from outside.

// replayItem is one batch to replay. In-process workloads supply the
// recorded program and the tensors bound to its inputs; bhd supplies the
// listing text, which is parsed and validated under the clock as the
// daemon would.
type replayItem struct {
	label  string
	weight float64 // share of the workload's batches that look like this
	prog   *bytecode.Program
	inputs []tensor.Tensor // bound to prog.Inputs, in order
	text   string
	// reads tells whether the batch ends with the caller reading the
	// result back; the Flush-only workloads never do.
	reads bool
}

// capture records batch i of an in-process session into its pending
// program without flushing — Sync marks stand in for the reads, the
// cmd/genlistings idiom — and returns it with the bound inputs.
func capture(r recorder, i int) replayItem {
	for _, a := range r.record(i) {
		a.Sync()
	}
	p := r.context()
	return replayItem{prog: p.ctx.PendingProgram(), inputs: p.inputs}
}

// kind is one kind of batch a workload issues: the index of an example
// and the share of the workload's batches that are of this kind.
type kind struct {
	label string
	index int
	share float64
}

// replayItems returns the batches the layer replay times in isolation.
// An in-process workload is opened once per kind and the example batch
// captured from the fresh session, so every item is self-contained.
func (wl *workload) replayItems(seed int64, sz sizes) ([]replayItem, error) {
	if wl.replay != nil {
		return wl.replay(seed, sz)
	}
	var items []replayItem
	for _, k := range wl.kinds {
		s, err := wl.open(seed, sz, nil)
		if err != nil {
			return nil, err
		}
		it := capture(s.(recorder), k.index)
		it.label, it.weight, it.reads = k.label, k.share, wl.reads
		items = append(items, it)
		s.close()
	}
	return items, nil
}

// layerProfile holds the weighted means over a workload's replay items:
// microseconds per isolated call, and the counts taken at the same
// boundaries.
type layerProfile struct {
	parseUs, validateUs, fingerprintUs, rewriteUs float64
	lookupUs, compileUs, executeUs, tensorReadUs  float64
	totalUs                                       float64 // one full pass: every stage once
	listingBytes, bcBefore, bcAfter               float64
	ruleApplications, passes                      float64
	sweeps, elements, fusedInstr, fusedRed        float64
	compulsoryBytes                               float64
}

// timed runs f reps times under spans of the given name and returns the
// median duration in microseconds.
func timed(tr *span.Recorder, name string, reps int, f func() error) (float64, error) {
	d := make([]float64, reps)
	for i := range d {
		tr.Begin(name)
		t0 := time.Now()
		err := f()
		d[i] = float64(time.Since(t0)) / 1e3
		tr.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	sort.Float64s(d)
	return d[(reps-1)/2], nil
}

var syncFormat = tensor.FormatOptions{MaxPerDim: 10, Precision: 6}

func replayLayers(items []replayItem, reps int, tr *span.Recorder) (layerProfile, error) {
	var prof layerProfile
	rt := bohrium.NewRuntime(nil)
	defer rt.Close()
	pipeline := rewrite.Default()
	for idx := range items {
		it := &items[idx]
		tr.SetBatch(-1 - idx) // replay spans carry negative batch ids
		tr.Begin("replay")
		one, err := replayOne(rt, pipeline, it, reps, tr)
		tr.End()
		if err != nil {
			return prof, fmt.Errorf("replay %s: %w", it.label, err)
		}
		prof.add(it.weight, one)
	}
	return prof, nil
}

func (p *layerProfile) add(w float64, o layerProfile) {
	p.parseUs += w * o.parseUs
	p.validateUs += w * o.validateUs
	p.fingerprintUs += w * o.fingerprintUs
	p.rewriteUs += w * o.rewriteUs
	p.lookupUs += w * o.lookupUs
	p.compileUs += w * o.compileUs
	p.executeUs += w * o.executeUs
	p.tensorReadUs += w * o.tensorReadUs
	p.totalUs += w * o.totalUs
	p.listingBytes += w * o.listingBytes
	p.bcBefore += w * o.bcBefore
	p.bcAfter += w * o.bcAfter
	p.ruleApplications += w * o.ruleApplications
	p.passes += w * o.passes
	p.sweeps += w * o.sweeps
	p.elements += w * o.elements
	p.fusedInstr += w * o.fusedInstr
	p.fusedRed += w * o.fusedRed
	p.compulsoryBytes += w * o.compulsoryBytes
}

func replayOne(rt *bohrium.Runtime, pipeline *rewrite.Pipeline, it *replayItem, reps int, tr *span.Recorder) (layerProfile, error) {
	var one layerProfile
	// A session of its own per item, opened the way bohrium.NewContext and
	// bhd open theirs: default backend, fusion on.
	be, err := backend.Open("", rt.Engine(), backend.Config{VM: vm.Config{Fusion: true}})
	if err != nil {
		return one, err
	}
	defer be.Close()

	prog := it.prog
	if it.text != "" {
		one.listingBytes = float64(len(it.text))
		if one.parseUs, err = timed(tr, "parse", reps, func() (err error) {
			prog, _, err = bytecode.ParseNames(it.text)
			return err
		}); err != nil {
			return one, err
		}
		if one.validateUs, err = timed(tr, "validate", reps, prog.Validate); err != nil {
			return one, err
		}
	}

	var optimized *bytecode.Program
	var report *rewrite.Report
	if one.rewriteUs, err = timed(tr, "rewrite", reps, func() (err error) {
		optimized, report, err = pipeline.Optimize(prog)
		return err
	}); err != nil {
		return one, err
	}
	one.bcBefore = float64(report.Before.Instructions)
	one.bcAfter = float64(report.After.Instructions)
	one.ruleApplications = float64(report.TotalApplied())
	one.passes = float64(report.Passes)
	one.compulsoryBytes = float64(compulsoryBytes(optimized))

	// The front end fingerprints what it recorded; bhd what the optimizer
	// left.
	keyed := prog
	if it.text != "" {
		keyed = optimized
	}
	var fp bytecode.Fingerprint
	var consts []bytecode.Constant
	one.fingerprintUs, _ = timed(tr, "fingerprint", reps, func() error {
		fp, consts = keyed.Fingerprint(), keyed.Constants()
		return nil
	})

	if len(optimized.Instrs) > 0 {
		var plan backend.Plan
		if one.compileUs, err = timed(tr, "compile", reps, func() (err error) {
			plan, err = be.Compile(optimized)
			return err
		}); err != nil {
			return one, err
		}
		be.InsertPlan(fp, consts, false, plan, nil)
		if one.lookupUs, err = timed(tr, "lookup", reps, func() error {
			if _, _, ok := be.LookupPlan(fp, consts, nil); !ok {
				return fmt.Errorf("inserted plan not found")
			}
			return nil
		}); err != nil {
			return one, err
		}

		for j, r := range prog.Inputs {
			if j < len(it.inputs) {
				be.Bind(r, it.inputs[j])
			}
		}
		before := be.Stats()
		if one.executeUs, err = timed(tr, "execute", reps, func() error { return be.Execute(plan) }); err != nil {
			return one, err
		}
		after := be.Stats()
		n := float64(reps)
		one.sweeps = float64(after.Sweeps-before.Sweeps) / n
		one.elements = float64(after.Elements-before.Elements) / n
		one.fusedInstr = float64(after.FusedInstructions-before.FusedInstructions) / n
		one.fusedRed = float64(after.FusedReductions-before.FusedReductions) / n

		if !it.reads {
			return one.sum(), nil
		}
		one.tensorReadUs, err = timed(tr, "tensor_read", reps, func() error {
			for i := range optimized.Instrs {
				in := &optimized.Instrs[i]
				if in.Op != bytecode.OpSync {
					continue
				}
				t, ok := be.Tensor(in.Out.Reg, in.Out.View)
				if !ok {
					return fmt.Errorf("synced register %s has no buffer", in.Out.Reg)
				}
				if it.text != "" {
					_ = t.Format(syncFormat) // the batch response carries the text form
				} else {
					_ = t.Float64Slice()
				}
			}
			return nil
		})
		if err != nil {
			return one, err
		}
	}
	return one.sum(), nil
}

// sum fills in totalUs: every stage once.
func (p layerProfile) sum() layerProfile {
	p.totalUs = p.parseUs + p.validateUs + p.rewriteUs + p.fingerprintUs +
		p.lookupUs + p.compileUs + p.executeUs + p.tensorReadUs
	return p
}

// compulsoryBytes is the memory traffic the batch cannot avoid, computed
// from the optimized program: every register whose previous contents are
// read is read once, every register still alive at the end is written
// once. Temporaries created and freed inside the batch count nothing — a
// perfect fusion never materializes them. It is a computed figure, not a
// measured one: cache misses and re-reads are not in it.
func compulsoryBytes(p *bytecode.Program) int {
	seen := map[bytecode.RegID]bool{}
	readOld := map[bytecode.RegID]bool{}
	alive := map[bytecode.RegID]bool{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == bytecode.OpSync {
			continue
		}
		if in.Op == bytecode.OpFree {
			delete(alive, in.Out.Reg)
			continue
		}
		for _, o := range in.Inputs() {
			if o.IsReg() && !seen[o.Reg] {
				seen[o.Reg], readOld[o.Reg] = true, true
			}
		}
		if in.Out.IsReg() && in.WritesReg(in.Out.Reg) {
			seen[in.Out.Reg], alive[in.Out.Reg] = true, true
		}
	}
	total := 0
	for _, set := range []map[bytecode.RegID]bool{readOld, alive} {
		for r := range set {
			if info, ok := p.Reg(r); ok {
				total += info.Len * info.DType.Size()
			}
		}
	}
	return total
}
