package rewrite

import (
	"bohrium/internal/bytecode"
)

// ReuseRule eliminates a *recomputation* of an expensive sweep by
// substituting the earlier result register for the duplicate's — the
// zero-copy sibling of CommonSubexprRule, built for the combined batches
// the cross-plan deferral path produces. When a session streams the same
// batch twice (A, A) and the front end submits them as one program, the
// second half recomputes every value the first half just computed and
// freed; CSE cannot reach across the boundary because the BH_FREE of the
// first half's temporaries counts as a write. This rule may sink exactly
// one such BH_FREE past the duplicate: the first result stays alive
// until the point where the duplicate's result died, so register
// lifetimes — and therefore the front end's register recycling and the
// batch fingerprints of later iterations — are exactly what the
// unoptimized program produced.
//
// Legality (all conditions conservative):
//   - the producer is an expensive elementwise byte-code (cost ≥ MinCost)
//     or any reduction/scan sweep, is not in-place, and the duplicate
//     repeats it bit-for-bit: same opcode, same axis, same operands, same
//     output view (deterministic kernels make the results bitwise equal);
//   - between producer and duplicate nothing writes the producer's inputs
//     or its result — except at most one BH_FREE of the result, which is
//     the free this rule sinks;
//   - the duplicate's result register is fresh (never referenced before
//     the duplicate, not an external input or output) and after the
//     duplicate is only *read* through the producer's output view, then
//     freed at most once;
//   - if the producer's result was freed in the gap, the duplicate's
//     result must be freed too (the sink target); the producer's result
//     must not be written after the duplicate before that point.
//
// The rewrite deletes the duplicate, redirects every later read of its
// result to the producer's, and swaps the sunk BH_FREE for the
// duplicate's BH_FREE — one sweep instead of two, no copies inserted.
type ReuseRule struct {
	// MinCost is the minimum elementwise op cost worth deduplicating;
	// zero means 4 (DIVIDE and up). Reductions and scans always qualify:
	// removing one removes a whole sweep at zero copy cost.
	MinCost float64
}

// Name implements Rule.
func (ReuseRule) Name() string { return "seq-reuse" }

// Apply implements Rule.
func (r ReuseRule) Apply(p *bytecode.Program) (int, error) {
	minCost := r.MinCost
	if minCost == 0 {
		minCost = 4
	}
	total := 0
	// Each firing rewrites the program, so rescan from the top until no
	// duplicate remains; the instruction count strictly shrinks, bounding
	// the loop.
	for r.applyOnce(p, minCost) {
		total++
	}
	return total, nil
}

// applyOnce finds and rewrites the first duplicate sweep, reporting
// whether it fired.
func (r ReuseRule) applyOnce(p *bytecode.Program, minCost float64) bool {
	for i := 0; i < len(p.Instrs); i++ {
		first := &p.Instrs[i]
		if !reusableSweep(first, minCost) {
			continue
		}
		if first.ReadsReg(first.Out.Reg) {
			continue // in-place update: the "inputs" change at i itself
		}
		if r.tryFrom(p, i) {
			return true
		}
	}
	return false
}

// reusableSweep reports whether in is a deterministic sweep expensive
// enough to deduplicate.
func reusableSweep(in *bytecode.Instruction, minCost float64) bool {
	if !in.Out.IsReg() {
		return false
	}
	info := in.Op.Info()
	switch info.Kind {
	case bytecode.KindReduction, bytecode.KindScan:
		return true
	default:
		return in.Op.Elementwise() && info.Cost >= minCost
	}
}

// tryFrom scans forward from producer i for a duplicate it can eliminate.
func (r ReuseRule) tryFrom(p *bytecode.Program, i int) bool {
	first := &p.Instrs[i]
	pr := first.Out.Reg
	outView := first.Out.View
	sunkFree := -1 // index of the single sinkable BH_FREE of pr, if any
	for j := i + 1; j < len(p.Instrs); j++ {
		second := &p.Instrs[j]
		if sameSweep(first, second) && second.Out.IsReg() && second.Out.Reg != pr &&
			second.Out.View.Equal(outView) && r.rewriteDup(p, i, j, sunkFree) {
			return true
		}
		// The gap must leave the producer's result and inputs untouched —
		// except one BH_FREE of the result, which the rewrite can sink.
		if writesOverlap(second, pr, outView) {
			if second.Op == bytecode.OpFree && sunkFree < 0 {
				sunkFree = j
				continue
			}
			return false
		}
		for _, opnd := range first.Inputs() {
			if opnd.IsReg() && writesOverlap(second, opnd.Reg, opnd.View) {
				return false
			}
		}
	}
	return false
}

// sameSweep reports whether two instructions perform the identical sweep:
// sameComputation plus axis agreement (reductions and scans of different
// axes share operands but not results).
func sameSweep(a, b *bytecode.Instruction) bool {
	return a.Op == b.Op && a.Axis == b.Axis && sameComputation(a, b)
}

// rewriteDup validates the duplicate at j against producer i and, when
// every condition holds, performs the substitution. sunkFree is the index
// of the BH_FREE of the producer's result sitting between i and j, or -1.
func (r ReuseRule) rewriteDup(p *bytecode.Program, i, j, sunkFree int) bool {
	first := &p.Instrs[i]
	pr := first.Out.Reg
	q := p.Instrs[j].Out.Reg
	outView := first.Out.View
	if p.IsInput(q) || p.IsOutput(q) {
		return false
	}
	// q must be fresh: no instruction before the duplicate may reference
	// it (reads, writes, BH_FREE and BH_SYNC all count).
	for k := 0; k < j; k++ {
		in := &p.Instrs[k]
		if in.ReadsReg(q) || (in.Out.IsReg() && in.Out.Reg == q) {
			return false
		}
	}
	// After the duplicate, q may only be read through the producer's
	// output view and freed at most once; pr must not be written again
	// before q's last use (its value must stay what the producer wrote).
	type site struct {
		idx int
		in2 bool
	}
	var reads []site
	qFree := -1
	prTouched := false // pr written or freed somewhere after j
	for k := j + 1; k < len(p.Instrs); k++ {
		in := &p.Instrs[k]
		if in.Out.IsReg() && in.Out.Reg == q {
			if in.Op != bytecode.OpFree || qFree >= 0 {
				return false // rewrite, sync or double free of q
			}
			qFree = k
			continue
		}
		if qFree >= 0 && in.ReadsReg(q) {
			return false // use after free (invalid input; just bail)
		}
		if in.In1.IsReg() && in.In1.Reg == q {
			if prTouched || !in.In1.View.Equal(outView) {
				return false // pr no longer holds the value here
			}
			reads = append(reads, site{k, false})
		}
		if in.In2.IsReg() && in.In2.Reg == q {
			if prTouched || !in.In2.View.Equal(outView) {
				return false
			}
			reads = append(reads, site{k, true})
		}
		if in.Out.IsReg() && in.Out.Reg == pr && in.Op != bytecode.OpSync {
			// In the sink case pr's free lands where q died, so nothing
			// may touch pr after the duplicate at all; otherwise later
			// writes are fine as long as no redirected read follows
			// (checked above via prTouched — an instruction that both
			// reads q and writes pr reads before it writes, elementwise
			// style, so its own read is still safe).
			if sunkFree >= 0 {
				return false
			}
			prTouched = true
		}
	}
	if sunkFree >= 0 && qFree < 0 {
		// The producer's result died in the gap but the duplicate's never
		// dies: sinking the free would extend pr's lifetime to program
		// end and change the register's fate. Not worth distorting
		// recycling for.
		return false
	}
	// All conditions hold — rewrite: substitutions, the free swap, then
	// the deletions.
	for _, s := range reads {
		if s.in2 {
			p.Instrs[s.idx].In2.Reg = pr
		} else {
			p.Instrs[s.idx].In1.Reg = pr
		}
	}
	drop := []int{j}
	if sunkFree >= 0 {
		// pr's free sinks to where q died: rewrite q's BH_FREE into pr's
		// (keeping pr's original free operand) and delete the early one.
		p.Instrs[qFree].Out = p.Instrs[sunkFree].Out
		drop = append(drop, sunkFree)
	} else if qFree >= 0 {
		// pr stays live past q's death anyway; q's free just disappears.
		drop = append(drop, qFree)
	}
	for _, k := range drop {
		p.Instrs[k] = bytecode.Instruction{}
	}
	compact(p)
	return true
}
