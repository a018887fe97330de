package rewrite

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bohrium/internal/bytecode"
)

// ErrRewrite wraps rule application failures (a rule producing an invalid
// program is a bug; the pipeline surfaces it rather than executing wrong
// code).
var ErrRewrite = errors.New("rewrite: pipeline error")

// Rule is one algebraic transformation. Apply mutates the program in
// place and returns how many rewrites it performed (zero when it found
// nothing).
type Rule interface {
	// Name identifies the rule in reports and ablation configs.
	Name() string
	// Apply rewrites the program, returning the number of sites changed.
	Apply(p *bytecode.Program) (int, error)
}

// Pipeline drives rules to a fixpoint.
type Pipeline struct {
	rules []Rule
	// MaxPasses bounds fixpoint iteration (a safety net against
	// oscillating rule pairs; well-formed rule sets converge quickly).
	MaxPasses int
	// Validate re-validates the program after every rule application,
	// attributing breakage to the rule that caused it.
	Validate bool
}

// NewPipeline builds a pipeline over the given rules, applied in order
// within each pass, with validation enabled and a default pass bound.
func NewPipeline(rules ...Rule) *Pipeline {
	return &Pipeline{rules: rules, MaxPasses: 10, Validate: true}
}

// Rules returns the pipeline's rules in application order.
func (pl *Pipeline) Rules() []Rule { return pl.rules }

// Metrics summarizes a program for before/after comparison in reports.
type Metrics struct {
	Instructions int
	Work         float64
}

// Report describes what a pipeline run did.
type Report struct {
	Passes int
	// Applied counts rewrites per rule name; a rule that never applied
	// has no entry.
	Applied map[string]int
	Before  Metrics
	After   Metrics
}

// TotalApplied returns the total number of rewrites across rules.
func (r *Report) TotalApplied() int {
	n := 0
	for _, c := range r.Applied {
		n += c
	}
	return n
}

// String renders the report as a small table for tool output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "passes: %d, byte-codes: %d -> %d, est. work: %.0f -> %.0f\n",
		r.Passes, r.Before.Instructions, r.After.Instructions, r.Before.Work, r.After.Work)
	names := make([]string, 0, len(r.Applied))
	for name := range r.Applied {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if r.Applied[name] > 0 {
			fmt.Fprintf(&b, "  %-24s %d\n", name, r.Applied[name])
		}
	}
	return b.String()
}

// measure snapshots program metrics.
func measure(p *bytecode.Program) Metrics {
	return Metrics{Instructions: p.Len(), Work: p.WorkEstimate()}
}

// Run applies the pipeline to p in place, returning the report. On error
// the program may be partially rewritten; callers should Clone first if
// they need the original (the Optimize helper does).
func (pl *Pipeline) Run(p *bytecode.Program) (*Report, error) {
	report := &Report{Applied: map[string]int{}, Before: measure(p)}
	for pass := 0; pass < pl.MaxPasses; pass++ {
		changed := 0
		for _, rule := range pl.rules {
			n, err := rule.Apply(p)
			if err != nil {
				return report, fmt.Errorf("%w: rule %s: %w", ErrRewrite, rule.Name(), err)
			}
			if n > 0 && pl.Validate {
				if err := p.Validate(); err != nil {
					return report, fmt.Errorf("%w: rule %s produced invalid program: %w",
						ErrRewrite, rule.Name(), err)
				}
			}
			if n > 0 {
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

// Optimize clones p, runs the pipeline on the clone, and returns it with
// the report — the non-destructive entry point the front-end and tools use.
func (pl *Pipeline) Optimize(p *bytecode.Program) (*bytecode.Program, *Report, error) {
	out := p.Clone()
	report, err := pl.Run(out)
	if err != nil {
		return nil, report, err
	}
	return out, report, nil
}

// Program edit helpers shared by the rules.

// removeAt deletes instruction idx.
func removeAt(p *bytecode.Program, idx int) {
	p.Instrs = append(p.Instrs[:idx], p.Instrs[idx+1:]...)
}

// replaceAt substitutes instruction idx with the given sequence.
func replaceAt(p *bytecode.Program, idx int, with ...bytecode.Instruction) {
	tail := append([]bytecode.Instruction(nil), p.Instrs[idx+1:]...)
	p.Instrs = append(p.Instrs[:idx], append(with, tail...)...)
}
