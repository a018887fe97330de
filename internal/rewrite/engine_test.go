package rewrite

import (
	"errors"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
)

// brokenRule deliberately corrupts the program, to test the pipeline's
// validation attribution.
type brokenRule struct{}

func (brokenRule) Name() string { return "broken" }

func (brokenRule) Apply(p *bytecode.Program) (int, error) {
	if p.Len() == 0 {
		return 0, nil
	}
	// Point the first instruction's result at a non-existent register.
	p.Instrs[0].Out.Reg = bytecode.RegID(len(p.Regs) + 5)
	return 1, nil
}

// failingRule returns an error directly.
type failingRule struct{}

func (failingRule) Name() string { return "failing" }

func (failingRule) Apply(p *bytecode.Program) (int, error) {
	return 0, errors.New("synthetic failure")
}

// oscillatingRule flips an ADD to SUBTRACT and back, never converging.
type oscillatingRule struct{}

func (oscillatingRule) Name() string { return "oscillating" }

func (oscillatingRule) Apply(p *bytecode.Program) (int, error) {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case bytecode.OpAdd:
			in.Op = bytecode.OpSubtract
			return 1, nil
		case bytecode.OpSubtract:
			in.Op = bytecode.OpAdd
			return 1, nil
		}
	}
	return 0, nil
}

func TestPipelineAttributesInvalidProgram(t *testing.T) {
	p := bytecode.MustParse(listing2)
	pl := NewPipeline(brokenRule{})
	_, err := pl.Run(p)
	if err == nil {
		t.Fatal("pipeline accepted a corrupted program")
	}
	if !errors.Is(err, ErrRewrite) {
		t.Errorf("error %v is not ErrRewrite", err)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error does not name the culprit rule: %v", err)
	}
}

func TestPipelinePropagatesRuleError(t *testing.T) {
	p := bytecode.MustParse(listing2)
	_, err := NewPipeline(failingRule{}).Run(p)
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("rule error lost: %v", err)
	}
}

func TestPipelineMaxPassesBoundsOscillation(t *testing.T) {
	p := bytecode.MustParse(listing2)
	pl := NewPipeline(oscillatingRule{})
	pl.MaxPasses = 4
	report, err := pl.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if report.Passes != 4 {
		t.Errorf("ran %d passes, want the 4-pass bound", report.Passes)
	}
}

func TestBuildRespectsOptions(t *testing.T) {
	tests := []struct {
		name  string
		opts  Options
		rules int
	}{
		{"empty", Options{}, 0},
		{"fold only", Options{Fold: true}, 3},
		{"everything", DefaultOptions(), 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pl := Build(tt.opts)
			if got := len(pl.Rules()); got != tt.rules {
				t.Errorf("Build(%+v) has %d rules, want %d", tt.opts, got, tt.rules)
			}
		})
	}
}

func TestEmptyPipelineIsNoop(t *testing.T) {
	p := bytecode.MustParse(listing2)
	before := p.String()
	report, err := Build(Options{}).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != before {
		t.Error("empty pipeline changed the program")
	}
	if report.TotalApplied() != 0 {
		t.Error("empty pipeline reported rewrites")
	}
	if report.Before.Instructions != report.After.Instructions {
		t.Error("metrics changed without rewrites")
	}
}

func TestReportString(t *testing.T) {
	p := bytecode.MustParse(listing2)
	report, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	s := report.String()
	if !strings.Contains(s, "byte-codes: 5 -> 2") {
		t.Errorf("report: %s", s)
	}
	if !strings.Contains(s, "add-merge") {
		t.Errorf("report misses rule stats: %s", s)
	}
}
