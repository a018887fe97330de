package backend

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

func init() {
	Register("inprocess", func(eng *vm.Engine, cfg Config) (Backend, error) {
		return &inProcess{m: eng.NewMachine(cfg.VM)}, nil
	})
}

// inProcess is the reference backend: a thin adapter over the fused-sweep
// vm.Machine, which was the only execution path before the seam existed.
// Every differential guarantee in the repo is stated against it.
type inProcess struct {
	m *vm.Machine
}

func (b *inProcess) Name() string { return "inprocess" }

func (b *inProcess) Capabilities() Capabilities { return Capabilities{} }

func (b *inProcess) Compile(p *bytecode.Program) (Plan, error) {
	return b.m.CompileValidated(p), nil
}

func (b *inProcess) Execute(pl Plan) error {
	vp, ok := pl.(*vm.Plan)
	if !ok {
		return fmt.Errorf("%w: plan %T was not compiled by the inprocess backend", vm.ErrExec, pl)
	}
	return vp.Execute(b.m)
}

func (b *inProcess) Bind(r bytecode.RegID, t tensor.Tensor) { b.m.Bind(r, t) }

func (b *inProcess) Tensor(r bytecode.RegID, v tensor.View) (tensor.Tensor, bool) {
	return b.m.Tensor(r, v)
}

func (b *inProcess) PlanCacheEnabled() bool { return b.m.PlanCacheEnabled() }

func (b *inProcess) LookupPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, accept func(meta any) bool) (Plan, any, bool) {
	cached, meta, ok := b.m.LookupPlan(scopeFingerprint(b.Name(), fp), consts, accept)
	if !ok {
		return nil, nil, false
	}
	if cached == nil {
		return nil, meta, true
	}
	return cached.(*vm.Plan), meta, true
}

func (b *inProcess) InsertPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, parametric bool, pl Plan, meta any) {
	var cached vm.CachedPlan
	if pl != nil {
		vp, ok := pl.(*vm.Plan)
		if !ok {
			return // a foreign plan must never enter this backend's cache slice
		}
		cached = vp
	}
	b.m.InsertPlan(scopeFingerprint(b.Name(), fp), consts, parametric, cached, meta)
}

func (b *inProcess) Stats() vm.Stats { return b.m.Stats() }

func (b *inProcess) ResetStats() { b.m.ResetStats() }

func (b *inProcess) CountPipelined() { b.m.CountPipelined() }

func (b *inProcess) Close() { b.m.Close() }
