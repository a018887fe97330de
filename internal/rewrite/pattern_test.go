package rewrite

import (
	"testing"

	"bohrium/internal/bytecode"
)

func TestPatternMatchesAdjacentAdds(t *testing.T) {
	p := bytecode.MustParse(`
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
`)
	m, ok := addMergePattern.Find(p)
	if !ok {
		t.Fatal("no match on Listing 2 adds")
	}
	if m.Positions[0] != 1 || m.Positions[1] != 2 {
		t.Errorf("positions = %v, want [1 2]", m.Positions)
	}
	if m.Const("c1").Int() != 1 || m.Const("c2").Int() != 1 {
		t.Error("constants not bound")
	}
	if m.Reg("r") != 0 {
		t.Error("register not bound")
	}
}

func TestPatternMatchesAcrossUnrelatedGap(t *testing.T) {
	// An unrelated byte-code on a different register sits between the two
	// adds; gap tolerance (D1) must still find the pair.
	p := bytecode.MustParse(`
.reg a0 float64 10
.reg a1 float64 10
BH_IDENTITY a0 0
BH_IDENTITY a1 0
BH_ADD a0 a0 1
BH_MULTIPLY a1 a1 2.0
BH_ADD a0 a0 2
BH_SYNC a0
BH_SYNC a1
`)
	m, ok := addMergePattern.Find(p)
	if !ok {
		t.Fatal("gap-tolerant match failed")
	}
	if m.Positions[0] != 2 || m.Positions[1] != 4 {
		t.Errorf("positions = %v, want [2 4]", m.Positions)
	}
}

func TestPatternBlockedByInterferingGap(t *testing.T) {
	// A SYNC of the target register between the adds observes the
	// intermediate value: merging would change observable behaviour.
	p := bytecode.MustParse(`
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 a0 1
BH_SYNC a0
BH_ADD a0 a0 2
`)
	if _, ok := addMergePattern.Find(p); ok {
		t.Error("matched across an observing SYNC")
	}
}

func TestPatternBlockedByOverlappingWrite(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 a0 1
BH_MULTIPLY a0 a0 3.0
BH_ADD a0 a0 2
`)
	if _, ok := addMergePattern.Find(p); ok {
		t.Error("matched across an intervening write to the same view")
	}
}

func TestPatternAllowsDisjointViewGap(t *testing.T) {
	// The gap instruction writes a DIFFERENT half of the same register:
	// view-granular interference must allow the merge of the full-view...
	// no — here the adds target the first half and the gap writes the
	// second half, so they commute.
	p := bytecode.MustParse(`
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 [0:5:1] a0 [0:5:1] 1
BH_ADD a0 [5:10:1] a0 [5:10:1] 9
BH_ADD a0 [0:5:1] a0 [0:5:1] 2
BH_SYNC a0
`)
	m, ok := addMergePattern.Find(p)
	if !ok {
		t.Fatal("disjoint-view gap blocked a valid merge")
	}
	if m.Positions[0] != 1 || m.Positions[1] != 3 {
		t.Errorf("positions = %v, want [1 3]", m.Positions)
	}
}

func TestPatternNoGapsMode(t *testing.T) {
	pat := addMergePattern
	pat.NoGaps = true
	p := bytecode.MustParse(`
.reg a0 float64 10
.reg a1 float64 10
BH_IDENTITY a0 0
BH_IDENTITY a1 0
BH_ADD a0 a0 1
BH_MULTIPLY a1 a1 2.0
BH_ADD a0 a0 2
`)
	if _, ok := pat.Find(p); ok {
		t.Error("NoGaps pattern matched across a gap")
	}
	q := bytecode.MustParse(`
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 a0 1
BH_ADD a0 a0 2
`)
	if _, ok := pat.Find(q); !ok {
		t.Error("NoGaps pattern missed adjacent match")
	}
}

func TestBindingConsistency(t *testing.T) {
	// Two adds on DIFFERENT registers must not match a pattern whose
	// variable "r" appears in both.
	p := bytecode.MustParse(`
.reg a0 float64 10
.reg a1 float64 10
BH_IDENTITY a0 0
BH_IDENTITY a1 0
BH_ADD a0 a0 1
BH_ADD a1 a1 2
`)
	if _, ok := addMergePattern.Find(p); ok {
		t.Error("pattern bound one variable to two registers")
	}
}

func TestBindingViewConsistency(t *testing.T) {
	// Same register, different views: variable "v" must not unify.
	p := bytecode.MustParse(`
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 [0:5:1] a0 [0:5:1] 1
BH_ADD a0 [5:10:1] a0 [5:10:1] 2
`)
	if _, ok := addMergePattern.Find(p); ok {
		t.Error("pattern unified two different views")
	}
}

func TestConstPredFilter(t *testing.T) {
	// Patterns bind constants; a rule filters them on the bound value.
	pat := compile(SeqPattern{
		Pats: []InstrPattern{{
			Ops: []bytecode.Opcode{bytecode.OpPower},
			Out: RegOp("o", "vo"), In1: RegOp("x", "vx"), In2: ConstOp("n"),
		}},
	})
	integral := func(c bytecode.Constant) bool { return c.IsIntegral() && c.Int() >= 2 }
	match := bytecode.MustParse(`
.reg a0 float64 4
.reg a1 float64 4
BH_IDENTITY a0 2.0
BH_POWER a1 a0 10
`)
	if m, ok := pat.Find(match); !ok || !integral(m.Const("n")) {
		t.Error("integral exponent not matched")
	}
	noMatch := bytecode.MustParse(`
.reg a0 float64 4
.reg a1 float64 4
BH_IDENTITY a0 2.0
BH_POWER a1 a0 2.5
`)
	m, ok := pat.Find(noMatch)
	if !ok {
		t.Fatal("constant operand not matched")
	}
	if integral(m.Const("n")) {
		t.Error("fractional exponent passed the integral filter")
	}
}

func TestWritesOnlyProtection(t *testing.T) {
	// solvePattern protects A writes-only: a gap READ of A (the add into
	// a5) must not block the match.
	p := bytecode.MustParse(`
.reg a0 float64 9
.reg a1 float64 9
.reg a2 float64 3
.reg a3 float64 3
.reg a5 float64 9
.in a0
.in a2
BH_INVERSE a1 [0:9:3][0:3:1] a0 [0:9:3][0:3:1]
BH_ADD a5 [0:9:1] a0 [0:9:1] 1.0
BH_MATMUL a3 [0:3:1][0:1:1] a1 [0:9:3][0:3:1] a2 [0:3:1][0:1:1]
BH_SYNC a3
BH_SYNC a5
`)
	if _, ok := solvePattern.Find(p); !ok {
		t.Error("gap read of A blocked the solve pattern")
	}
	// But a gap WRITE to A must block it.
	q := bytecode.MustParse(`
.reg a0 float64 9
.reg a1 float64 9
.reg a2 float64 3
.reg a3 float64 3
.in a0
.in a2
BH_INVERSE a1 [0:9:3][0:3:1] a0 [0:9:3][0:3:1]
BH_ADD a0 [0:9:1] a0 [0:9:1] 1.0
BH_MATMUL a3 [0:3:1][0:1:1] a1 [0:9:3][0:3:1] a2 [0:3:1][0:1:1]
BH_SYNC a3
`)
	if _, ok := solvePattern.Find(q); ok {
		t.Error("gap write to A did not block the solve pattern")
	}
}

func TestDeadAfter(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 4
.reg a1 float64 4
BH_IDENTITY a0 1
BH_IDENTITY a1 2
BH_ADD a0 a0 a1
BH_SYNC a0
`)
	if DeadAfter(p, 1, 1) {
		t.Error("a1 reported dead before its read at instr 2")
	}
	if !DeadAfter(p, 2, 1) {
		t.Error("a1 reported live after its last read")
	}
	if DeadAfter(p, 2, 0) {
		t.Error("a0 reported dead before its SYNC")
	}
	if !DeadAfter(p, 3, 0) {
		t.Error("a0 reported live after its SYNC (no later reads)")
	}
}

func TestDeadAfterInputStaysLive(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 4
.in a0
BH_ADD a0 a0 1
`)
	if DeadAfter(p, 0, 0) {
		t.Error("externally bound input register reported dead")
	}
}

func TestDeadAfterFreeKills(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 4
BH_IDENTITY a0 1
BH_FREE a0
`)
	if !DeadAfter(p, 0, 0) {
		t.Error("freed register reported live")
	}
}
