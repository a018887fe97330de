package rewrite

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
}

// NewPipeline builds a pipeline over the given rules, applied in order
// within each pass, with a default pass bound.
func NewPipeline(rules ...Rule) *Pipeline {
	return &Pipeline{rules: rules, MaxPasses: 10}
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
	for _, name := range slices.Sorted(maps.Keys(r.Applied)) {
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

// Run applies the pipeline to p in place, validating the program after
// every rule that changed it, so a broken program names the rule that
// broke it. On error the program may be partially rewritten; callers
// should Clone first if they need the original (the Optimize helper does).
func (pl *Pipeline) Run(p *bytecode.Program) (*Report, error) { return pl.run(p, true) }

// run drives the rules to a fixpoint, validating after every rule that
// changed the program when validate is set. A pass that has changed
// nothing yet stops once the rule that made the previous pass's last
// change has run again: every later rule already found nothing on this
// same program.
func (pl *Pipeline) run(p *bytecode.Program, validate bool) (*Report, error) {
	report := &Report{Applied: map[string]int{}, Before: measure(p)}
	last := -1 // index of the rule that made the latest change
	for pass := 0; pass < pl.MaxPasses; pass++ {
		stop, changed := last, false
		for k, rule := range pl.rules {
			n, err := rule.Apply(p)
			if err != nil {
				return report, fmt.Errorf("%w: rule %s: %w", ErrRewrite, rule.Name(), err)
			}
			if n == 0 {
				if !changed && k == stop {
					break
				}
				continue
			}
			if validate {
				if err := p.Validate(); err != nil {
					return report, fmt.Errorf("%w: rule %s produced invalid program: %w",
						ErrRewrite, rule.Name(), err)
				}
			}
			report.Applied[rule.Name()] += n
			last, changed = k, true
		}
		report.Passes++
		if !changed {
			break
		}
	}
	report.After = measure(p)
	return report, nil
}

// Optimize clones p, runs the pipeline on the clone, and returns it with
// the report — the non-destructive entry point the front-end and tools
// use. The rewritten program is validated once. If that fails, or a rule
// fails or panics (as one may on a program an earlier rule broke), the
// pipeline is replayed under Run on a fresh clone of p, so the error
// names the rule that broke the program; a panic on a valid program
// recurs in the replay and propagates from it.
func (pl *Pipeline) Optimize(p *bytecode.Program) (*bytecode.Program, *Report, error) {
	out := p.Clone()
	if report, ok := pl.runChecked(out); ok {
		return out, report, nil
	}
	out = p.Clone()
	report, err := pl.Run(out)
	if err != nil {
		out = nil
	}
	return out, report, err
}

// runChecked runs the pipeline on p without per-rule validation and
// reports whether every rule succeeded and the result, if changed, is valid.
func (pl *Pipeline) runChecked(p *bytecode.Program) (report *Report, ok bool) {
	defer func() {
		ok = recover() == nil && ok // after a panic Optimize replays under Run
	}()
	report, err := pl.run(p, false)
	return report, err == nil && (report.TotalApplied() == 0 || p.Validate() == nil)
}

// compact removes the tombstones rules leave where they delete an
// instruction in place: the zero Instruction, whose op-code no valid
// program uses. It reads and writes nothing, so the matcher and the
// interference checks see through it until this one compaction.
func compact(p *bytecode.Program) {
	w := 0
	for w < len(p.Instrs) && p.Instrs[w].Op != 0 {
		w++
	}
	for i := w; i < len(p.Instrs); i++ {
		if p.Instrs[i].Op != 0 {
			p.Instrs[w] = p.Instrs[i]
			w++
		}
	}
	clear(p.Instrs[w:])
	p.Instrs = p.Instrs[:w]
}
