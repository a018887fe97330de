package rewrite

import "bohrium/internal/chains"

// Options configures the standard optimization pipeline: the paper's
// rewrites (constant merging, power expansion, inverse→solve) and the
// cleanup rules around them, every one acting inside a single batch. The
// zero value enables no rule; DefaultOptions enables the full pipeline.
type Options struct {
	// Fold enables canonicalization plus the constant merge rules
	// (Listings 2→3).
	Fold bool
	// IdentityElim enables neutral-element elimination.
	IdentityElim bool
	// IdentityFold enables folding constant arithmetic into constant
	// initializations.
	IdentityFold bool
	// PowerExpand enables equation (1) power expansion.
	PowerExpand bool
	// PowerStrategy picks the chain generator (zero: binary).
	PowerStrategy chains.Strategy
	// PowerMaxExponent bounds expansion (zero: DefaultMaxExponent).
	PowerMaxExponent int64
	// PowerNoCostModel disables the D2 profitability guard.
	PowerNoCostModel bool
	// PowerAllowTemporaries permits scratch registers in chains.
	PowerAllowTemporaries bool
	// CSE enables common-subexpression reuse of expensive sweeps.
	CSE bool
	// SolveRewrite enables the equation (2) inverse→solve rewrite.
	SolveRewrite bool
	// DCE enables dead-code elimination.
	DCE bool
	// MaxPasses bounds fixpoint iteration (zero: 10).
	MaxPasses int
}

// DefaultOptions enables the full pipeline with the paper-faithful
// defaults: binary chains (two-tensor safe), cost model on, liveness gate
// on.
func DefaultOptions() Options {
	return Options{
		Fold:         true,
		IdentityElim: true,
		IdentityFold: true,
		PowerExpand:  true,
		CSE:          true,
		SolveRewrite: true,
		DCE:          true,
	}
}

// Default returns the standard full pipeline.
func Default() *Pipeline { return Build(DefaultOptions()) }

// Build assembles a pipeline from options. Rule order within a pass:
// canonicalize first (so merges see constants in slot two), folds before
// power expansion (a folded exponent may become expandable), structural
// rewrites, then cleanup (CSE before DCE so orphaned duplicates die).
func Build(opts Options) *Pipeline {
	var rules []Rule
	if opts.Fold {
		rules = append(rules, CanonicalizeRule{}, AddMergeRule{}, MulMergeRule{})
	}
	if opts.IdentityFold {
		rules = append(rules, IdentityFoldRule{})
	}
	if opts.IdentityElim {
		rules = append(rules, IdentityElimRule{})
	}
	if opts.PowerExpand {
		rules = append(rules, PowerExpandRule{
			Strategy:         opts.PowerStrategy,
			MaxExponent:      opts.PowerMaxExponent,
			DisableCostModel: opts.PowerNoCostModel,
			AllowTemporaries: opts.PowerAllowTemporaries,
		})
	}
	if opts.SolveRewrite {
		rules = append(rules, SolveRewriteRule{})
	}
	if opts.CSE {
		rules = append(rules, CommonSubexprRule{})
	}
	if opts.DCE {
		rules = append(rules, DeadCodeElimRule{})
	}
	pl := NewPipeline(rules...)
	if opts.MaxPasses > 0 {
		pl.MaxPasses = opts.MaxPasses
	}
	return pl
}
