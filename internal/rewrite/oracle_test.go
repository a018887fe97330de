package rewrite

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The engine's oracles: the constant-merge rules as pairwise merges that
// shift the tail and restart at instruction 0 after every merge, and the
// full-pass fixpoint driver that validates after every rule that fired.
// Run merges, the confirming-pass stop and validate-once must reproduce
// their optimized program, Applied counts and pass count exactly.

// removeInstr deletes instruction idx, shifting the tail.
func removeInstr(p *bytecode.Program, idx int) {
	p.Instrs = slices.Delete(p.Instrs, idx, idx+1)
}

// pairwiseAddMerge is AddMergeRule one pair at a time.
type pairwiseAddMerge struct{ adjacentOnly bool }

func (pairwiseAddMerge) Name() string { return "add-merge" }

func (r pairwiseAddMerge) Apply(p *bytecode.Program) (int, error) {
	pattern := addMergePattern
	pattern.NoGaps = r.adjacentOnly
	total := 0
	for {
		m, ok := pattern.Find(p)
		if !ok {
			return total, nil
		}
		i, j := m.Positions[0], m.Positions[1]
		first, second := &p.Instrs[i], &p.Instrs[j]
		c1, c2 := m.Const("c1"), m.Const("c2")
		s1, s2 := signOf(first.Op), signOf(second.Op)
		var merged bytecode.Constant
		if isExactInt(c1) && isExactInt(c2) {
			merged = bytecode.ConstInt(s1*c1.Int() + s2*c2.Int())
		} else {
			merged = bytecode.ConstFloat(float64(s1)*c1.Float() + float64(s2)*c2.Float())
		}
		first.Op = bytecode.OpAdd
		first.In2 = bytecode.Const(merged)
		removeInstr(p, j)
		total++
	}
}

// pairwiseMulMerge is MulMergeRule one pair at a time.
type pairwiseMulMerge struct{}

func (pairwiseMulMerge) Name() string { return "mul-merge" }

func (pairwiseMulMerge) Apply(p *bytecode.Program) (int, error) {
	total := 0
	for from := 0; ; {
		m, ok := mulMergePattern.FindFrom(p, from)
		if !ok {
			return total, nil
		}
		i, j := m.Positions[0], m.Positions[1]
		first, second := &p.Instrs[i], &p.Instrs[j]
		c1, c2 := m.Const("c1"), m.Const("c2")
		ri, _ := p.Reg(first.Out.Reg)
		op1, op2 := first.Op, second.Op
		intReg := !ri.DType.IsFloat()
		switch {
		case intReg && op1 == bytecode.OpMultiply && op2 == bytecode.OpMultiply &&
			isExactInt(c1) && isExactInt(c2):
			first.In2 = bytecode.Const(bytecode.ConstInt(c1.Int() * c2.Int()))
		case intReg && op1 == bytecode.OpDivide && op2 == bytecode.OpDivide &&
			isExactInt(c1) && isExactInt(c2) && c1.Int() > 0 && c2.Int() > 0:
			first.In2 = bytecode.Const(bytecode.ConstInt(c1.Int() * c2.Int()))
		case intReg:
			from = i + 1
			continue
		case op1 == bytecode.OpMultiply && op2 == bytecode.OpMultiply:
			first.In2 = bytecode.Const(bytecode.ConstFloat(c1.Float() * c2.Float()))
		case op1 == bytecode.OpDivide && op2 == bytecode.OpDivide:
			first.In2 = bytecode.Const(bytecode.ConstFloat(c1.Float() * c2.Float()))
		case op1 == bytecode.OpMultiply && op2 == bytecode.OpDivide:
			if c2.Float() == 0 {
				from = i + 1
				continue
			}
			first.In2 = bytecode.Const(bytecode.ConstFloat(c1.Float() / c2.Float()))
		default:
			if c1.Float() == 0 {
				from = i + 1
				continue
			}
			first.Op = bytecode.OpMultiply
			first.In2 = bytecode.Const(bytecode.ConstFloat(c2.Float() / c1.Float()))
		}
		removeInstr(p, j)
		total++
		from = 0
	}
}

// pairwiseIdentityFold is IdentityFoldRule one pair at a time.
type pairwiseIdentityFold struct{}

func (pairwiseIdentityFold) Name() string { return "identity-fold" }

func (pairwiseIdentityFold) Apply(p *bytecode.Program) (int, error) {
	total := 0
	for from := 0; ; {
		m, ok := identityFoldPattern.FindFrom(p, from)
		if !ok {
			return total, nil
		}
		i, j := m.Positions[0], m.Positions[1]
		folded, ok := foldConstants(p.Instrs[j].Op, m.Const("c1"), m.Const("c2"))
		if !ok {
			from = i + 1
			continue
		}
		p.Instrs[i].In1 = bytecode.Const(folded)
		removeInstr(p, j)
		total++
		from = 0
	}
}

// oracleRules swaps the run-merging rules of rules for their pairwise
// oracles.
func oracleRules(rules []Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		switch r := r.(type) {
		case AddMergeRule:
			out[i] = pairwiseAddMerge{r.AdjacentOnly}
		case MulMergeRule:
			out[i] = pairwiseMulMerge{}
		case IdentityFoldRule:
			out[i] = pairwiseIdentityFold{}
		default:
			out[i] = r
		}
	}
	return out
}

// oracleRun is the full-pass fixpoint driver: every rule runs on every
// pass, and the program is validated after each rule that changed it.
func oracleRun(rules []Rule, maxPasses int, p *bytecode.Program) (*Report, error) {
	report := &Report{Applied: map[string]int{}, Before: measure(p)}
	for pass := 0; pass < maxPasses; pass++ {
		changed := 0
		for _, rule := range rules {
			n, err := rule.Apply(p)
			if err != nil {
				return report, fmt.Errorf("%w: rule %s: %w", ErrRewrite, rule.Name(), err)
			}
			if n > 0 {
				if err := p.Validate(); err != nil {
					return report, fmt.Errorf("%w: rule %s produced invalid program: %w",
						ErrRewrite, rule.Name(), err)
				}
				report.Applied[rule.Name()] += n
			}
			changed += n
		}
		report.Passes++
		if changed == 0 {
			break
		}
	}
	report.After = measure(p)
	return report, nil
}

// checkAgainstOracle optimizes prog with pl and with the oracles, and
// reports any difference in program, Applied, Passes or error.
func checkAgainstOracle(t *testing.T, name string, pl *Pipeline, prog *bytecode.Program) {
	t.Helper()
	before := prog.String()
	got, gotRep, gotErr := pl.Optimize(prog)
	want := prog.Clone()
	wantRep, wantErr := oracleRun(oracleRules(pl.Rules()), pl.MaxPasses, want)
	if prog.String() != before {
		t.Fatalf("%s: Optimize changed its input", name)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.String() != want.String() {
		t.Fatalf("%s: optimized program differs from the oracle's\ngot:\n%s\nwant:\n%s", name, got, want)
	}
	if gotRep.Passes != wantRep.Passes || !maps.Equal(gotRep.Applied, wantRep.Applied) {
		t.Fatalf("%s: passes %d applied %v, oracle passes %d applied %v",
			name, gotRep.Passes, gotRep.Applied, wantRep.Passes, wantRep.Applied)
	}
	if gotRep.Before != wantRep.Before || gotRep.After != wantRep.After {
		t.Fatalf("%s: metrics %+v -> %+v, oracle %+v -> %+v",
			name, gotRep.Before, gotRep.After, wantRep.Before, wantRep.After)
	}
}

func TestEngineMatchesOracleOnGoldenCorpus(t *testing.T) {
	for _, c := range goldenCorpus(t) {
		checkAgainstOracle(t, c.name, c.pl, c.prog)
	}
}

// noisyChain builds k constant updates of one target register, each
// followed by a gap drawn from: nothing, an unrelated update, a read of
// the target, a write overlapping it, a free and re-initialization of
// it, or a sync of it. The updates mix add, subtract, multiply and
// divide with integral and fractional constants, on an int64 or float64
// target, so every merge rule meets runs, declines and interference.
func noisyChain(seed uint64, k int) *bytecode.Program {
	r := tensor.NewSplitMix64(seed)
	dt := tensor.Float64
	if r.Intn(3) == 0 {
		dt = tensor.Int64
	}
	const n = 16
	full := tensor.NewView(tensor.MustShape(n))
	half, _ := full.Slice(0, 0, n, 2)
	p := bytecode.NewProgram()
	a, noise := p.NewReg(dt, n), p.NewReg(dt, n)
	target, other := bytecode.Reg(a, full), bytecode.Reg(noise, full)
	constant := func() bytecode.Operand {
		v := int64(r.Intn(13) - 3)
		if r.Intn(3) == 0 {
			return bytecode.Const(bytecode.ConstFloat(float64(v) + 0.5))
		}
		return bytecode.Const(bytecode.ConstInt(v))
	}
	p.EmitIdentity(target, constant())
	p.EmitIdentity(other, bytecode.Const(bytecode.ConstInt(1)))
	ops := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpDivide}
	mix := 2 + r.Intn(3) // 2: add/sub only; 3 and 4 bring in multiply and divide
	for i := 0; i < k; i++ {
		p.EmitBinary(ops[r.Intn(mix)], target, target, constant())
		switch r.Intn(12) {
		case 0, 1, 2, 3:
			p.EmitBinary(bytecode.OpMultiply, other, other, other)
		case 4:
			p.EmitBinary(bytecode.OpAdd, other, other, target)
		case 5:
			p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a, half), bytecode.Reg(a, half), constant())
		case 6:
			p.EmitFree(target)
			p.EmitIdentity(target, constant())
		case 7:
			p.EmitSync(target)
		case 8:
			p.EmitIdentity(target, constant())
		}
	}
	p.EmitBinary(bytecode.OpAdd, target, target, other)
	p.EmitFree(other)
	p.EmitSync(target)
	return p
}

// withAdjacentOnly returns the default pipeline with add-merge restricted
// to adjacent byte-codes (the D1 ablation).
func withAdjacentOnly() *Pipeline {
	rules := slices.Clone(Default().Rules())
	for i, r := range rules {
		if _, ok := r.(AddMergeRule); ok {
			rules[i] = AddMergeRule{AdjacentOnly: true}
		}
	}
	return NewPipeline(rules...)
}

func TestEngineMatchesOracleOnNoisyChains(t *testing.T) {
	pipelines := map[string]*Pipeline{"default": Default(), "adjacent": withAdjacentOnly()}
	for _, k := range []int{1, 2, 3, 5, 8, 17, 32, 64, 129, 256} {
		for seed := uint64(0); seed < 24; seed++ {
			prog := noisyChain(seed, k)
			if err := prog.Validate(); err != nil {
				t.Fatalf("chain k=%d seed=%d is invalid: %v", k, seed, err)
			}
			for name, pl := range pipelines {
				checkAgainstOracle(t, fmt.Sprintf("%s/k=%d/seed=%d", name, k, seed), pl, prog)
			}
		}
	}
}

// panicOnInvalid trusts the program it is given, as rules may once it
// validated: it looks up every result register and panics on an id
// beyond the register table.
type panicOnInvalid struct{}

func (panicOnInvalid) Name() string { return "trusting" }

func (panicOnInvalid) Apply(p *bytecode.Program) (int, error) {
	for i := range p.Instrs {
		_ = p.Regs[p.Instrs[i].Out.Reg]
	}
	return 0, nil
}

func TestOptimizeAttributesInvalidProgram(t *testing.T) {
	want, err := NewPipeline(brokenRule{}).Run(bytecode.MustParse(listing2))
	if err == nil {
		t.Fatalf("Run accepted a corrupted program (report %v)", want)
	}
	for name, pl := range map[string]*Pipeline{
		"invalid rewrite":  NewPipeline(brokenRule{}),
		"panicking rule":   NewPipeline(brokenRule{}, panicOnInvalid{}),
		"rule after other": NewPipeline(CanonicalizeRule{}, brokenRule{}, panicOnInvalid{}, DeadCodeElimRule{}),
	} {
		p := bytecode.MustParse(listing2)
		before := p.String()
		out, _, gotErr := pl.Optimize(p)
		if gotErr == nil || out != nil {
			t.Fatalf("%s: Optimize returned %v, %v; want an error", name, out, gotErr)
		}
		if !errors.Is(gotErr, ErrRewrite) || !strings.Contains(gotErr.Error(), "rule broken produced invalid program") {
			t.Errorf("%s: error %q does not name the culprit rule", name, gotErr)
		}
		if gotErr.Error() != err.Error() {
			t.Errorf("%s: error %q, Run's %q", name, gotErr, err)
		}
		if p.String() != before {
			t.Errorf("%s: Optimize changed its input", name)
		}
	}
}

// countingRule counts the Apply calls of the rule it wraps.
type countingRule struct {
	Rule
	calls *int
}

func (r countingRule) Apply(p *bytecode.Program) (int, error) {
	*r.calls++
	return r.Rule.Apply(p)
}

// TestConfirmingPassStopsAtLastChange pins the fixpoint's early stop: on
// Listing 2 the first pass changes the program last at identity-fold, so
// the confirming pass runs the rules up to identity-fold and no further.
func TestConfirmingPassStopsAtLastChange(t *testing.T) {
	calls := map[string]*int{}
	var rules []Rule
	for _, r := range Default().Rules() {
		calls[r.Name()] = new(int)
		rules = append(rules, countingRule{r, calls[r.Name()]})
	}
	report, err := NewPipeline(rules...).Run(bytecode.MustParse(listing2))
	if err != nil {
		t.Fatal(err)
	}
	if report.Passes != 2 {
		t.Fatalf("%d passes, want 2", report.Passes)
	}
	stopped := false
	for _, r := range rules {
		want := 2
		if stopped {
			want = 1
		}
		if got := *calls[r.Name()]; got != want {
			t.Errorf("%s ran %d times, want %d", r.Name(), got, want)
		}
		stopped = stopped || r.Name() == "identity-fold"
	}
}
