package backend

import (
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// TestResolverSharing pins who replays whose plan: resolvers with one
// signature share plans through the engine's cache — an unrewritten batch
// parametrically, so another constant still hits — while another scope or
// optimizer setting never replays them.
func TestResolverSharing(t *testing.T) {
	eng := vm.NewEngine(vm.EngineConfig{})
	t.Cleanup(eng.Close)
	resolver := func(sig Signature) *Resolver {
		b := New(eng, Config{VM: vm.Config{Fusion: true}})
		t.Cleanup(b.Close)
		return NewResolver(b, sig, nil, nil)
	}
	raw := Signature{Scope: "a", Fusion: true}
	hit := func(r *Resolver, p *bytecode.Program) bool {
		t.Helper()
		res, err := r.Resolve(p, r.Key(p))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report == nil
	}

	if hit(resolver(raw), chainProg(8, 1)) {
		t.Fatal("first resolution of a structure hit")
	}
	if !hit(resolver(raw), chainProg(8, 2)) {
		t.Error("same signature, new constant: want a parametric hit")
	}
	if hit(resolver(Signature{Scope: "b", Fusion: true}), chainProg(8, 1)) {
		t.Error("another scope replayed the plan")
	}
	if hit(resolver(Signature{Scope: "a", Options: rewrite.DefaultOptions(), Fusion: true}), chainProg(8, 1)) {
		t.Error("an optimizing resolver replayed an unoptimized plan")
	}
}

// TestResolverEmptyBatchAndPruning pins the miss path's two program
// edits: a batch that optimizes to nothing caches a nil plan (and hits it
// as one), and a compiled plan drops inputs no instruction references,
// while the caller's batch is left as it was.
func TestResolverEmptyBatchAndPruning(t *testing.T) {
	b := openTest(t, Config{VM: vm.Config{Fusion: true}})
	r := NewResolver(b, Signature{Scope: "test", Options: rewrite.DefaultOptions(), Fusion: true}, nil, nil)
	v := tensor.NewView(tensor.MustShape(4))

	dead := bytecode.NewProgram()
	tmp := dead.NewReg(tensor.Float64, 4)
	dead.EmitIdentity(bytecode.Reg(tmp, v), bytecode.Const(bytecode.ConstFloat(1)))
	dead.EmitFree(bytecode.Reg(tmp, v))
	for i, wantHit := range []bool{false, true} {
		res, err := r.Resolve(dead, r.Key(dead))
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != nil || (res.Report == nil) != wantHit {
			t.Fatalf("resolution %d of a dead batch: plan %v, hit %v; want nil plan, hit %v",
				i, res.Plan, res.Report == nil, wantHit)
		}
	}

	p := bytecode.NewProgram()
	a0, unused := p.NewReg(tensor.Float64, 4), p.NewReg(tensor.Float64, 4)
	p.MarkInput(a0)
	p.MarkInput(unused)
	p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a0, v), bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstFloat(1)))
	p.MarkOutput(a0)
	res, err := r.Resolve(p, r.Key(p))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Program().Inputs; len(got) != 1 || got[0] != a0 {
		t.Errorf("plan inputs %v, want [%s]", got, a0)
	}
	if len(p.Inputs) != 2 {
		t.Errorf("resolving edited the caller's batch: inputs %v", p.Inputs)
	}
}

// TestResolverScratchNeedsUsable pins the guard on the one unsound
// configuration: rewrites that create scratch registers without a host
// check of whether those ids are free.
func TestResolverScratchNeedsUsable(t *testing.T) {
	b := openTest(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("NewResolver accepted scratch-creating rewrites without a usable check")
		}
	}()
	NewResolver(b, Signature{Options: rewrite.Options{PowerExpand: true, PowerAllowTemporaries: true}}, nil, nil)
}
