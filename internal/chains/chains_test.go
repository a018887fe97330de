package chains

import (
	"testing"
	"testing/quick"
)

func mustChain(c Chain, err error) Chain {
	if err != nil {
		panic(err)
	}
	return c
}

func TestNaiveMatchesListing4(t *testing.T) {
	// Paper Listing 4: x^10 with nine BH_MULTIPLYs.
	c := mustChain(Naive(10))
	if got := c.MultiplyCount(); got != 9 {
		t.Errorf("naive chain for 10 uses %d multiplies, want 9 (Listing 4)", got)
	}
	if err := c.Verify(10); err != nil {
		t.Error(err)
	}
	if !c.TwoTensorSafe() {
		t.Error("naive chain must be two-tensor safe")
	}
}

func TestSquareIncrementMatchesListing5(t *testing.T) {
	// Paper Listing 5: x^10 with five BH_MULTIPLYs via exponents
	// 2, 4, 8, 9, 10.
	c := mustChain(SquareIncrement(10))
	if got := c.MultiplyCount(); got != 5 {
		t.Errorf("square-increment chain for 10 uses %d multiplies, want 5 (Listing 5)", got)
	}
	exps, err := c.Exponents()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8, 9, 10}
	for i := range want {
		if exps[i] != want[i] {
			t.Fatalf("exponents = %v, want %v", exps, want)
		}
	}
	if !c.TwoTensorSafe() {
		t.Error("Listing 5 chain must be two-tensor safe")
	}
}

func TestBinaryBeatsListing5ForTen(t *testing.T) {
	// The left-to-right binary method does x^10 in 4 multiplies
	// (2, 4, 5, 10) — one better than the paper's Listing 5, while
	// respecting the same two-tensor constraint. bhbench's E2 table
	// reports it as "binary (ours)" (ARCHITECTURE.md §6).
	c := mustChain(Binary(10))
	if got := c.MultiplyCount(); got != 4 {
		t.Errorf("binary chain for 10 uses %d multiplies, want 4", got)
	}
	if err := c.Verify(10); err != nil {
		t.Error(err)
	}
	if !c.TwoTensorSafe() {
		t.Error("binary chain must be two-tensor safe")
	}
}

func TestChainLengthsTable(t *testing.T) {
	// Known multiply counts for the strategies across interesting
	// exponents (powers of two, and the values "close to a power of 2"
	// the paper's conclusion calls out).
	tests := []struct {
		n                             int
		naive, squareInc, binary, opt int
	}{
		{n: 2, naive: 1, squareInc: 1, binary: 1, opt: 1},
		{n: 3, naive: 2, squareInc: 2, binary: 2, opt: 2},
		{n: 4, naive: 3, squareInc: 2, binary: 2, opt: 2},
		{n: 8, naive: 7, squareInc: 3, binary: 3, opt: 3},
		{n: 10, naive: 9, squareInc: 5, binary: 4, opt: 4},
		{n: 15, naive: 14, squareInc: 10, binary: 6, opt: 5},
		{n: 16, naive: 15, squareInc: 4, binary: 4, opt: 4},
		{n: 17, naive: 16, squareInc: 5, binary: 5, opt: 5},
		{n: 31, naive: 30, squareInc: 19, binary: 8, opt: 7},
		{n: 32, naive: 31, squareInc: 5, binary: 5, opt: 5},
		{n: 33, naive: 32, squareInc: 6, binary: 6, opt: 6},
		{n: 63, naive: 62, squareInc: 36, binary: 10, opt: 8},
		{n: 64, naive: 63, squareInc: 6, binary: 6, opt: 6},
	}
	for _, tt := range tests {
		if got := mustChain(Naive(tt.n)).MultiplyCount(); got != tt.naive {
			t.Errorf("naive(%d) = %d, want %d", tt.n, got, tt.naive)
		}
		if got := mustChain(SquareIncrement(tt.n)).MultiplyCount(); got != tt.squareInc {
			t.Errorf("squareIncrement(%d) = %d, want %d", tt.n, got, tt.squareInc)
		}
		if got := mustChain(Binary(tt.n)).MultiplyCount(); got != tt.binary {
			t.Errorf("binary(%d) = %d, want %d", tt.n, got, tt.binary)
		}
		if got := mustChain(Optimal(tt.n)).MultiplyCount(); got != tt.opt {
			t.Errorf("optimal(%d) = %d, want %d", tt.n, got, tt.opt)
		}
	}
}

func TestAllStrategiesVerifyProperty(t *testing.T) {
	// Property: every strategy produces a chain computing exactly n, and
	// binary never exceeds square-increment, which never exceeds naive.
	f := func(raw uint16) bool {
		n := int(raw%300) + 1
		naive, err := Naive(n)
		if err != nil || naive.Verify(n) != nil {
			return false
		}
		sqi, err := SquareIncrement(n)
		if err != nil || sqi.Verify(n) != nil {
			return false
		}
		bin, err := Binary(n)
		if err != nil || bin.Verify(n) != nil {
			return false
		}
		fac, err := Factor(n)
		if err != nil || fac.Verify(n) != nil {
			return false
		}
		if len(bin) > len(sqi) || len(sqi) > len(naive) && n > 1 {
			return false
		}
		return bin.TwoTensorSafe() && sqi.TwoTensorSafe() && naive.TwoTensorSafe()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalNeverWorseThanHeuristics(t *testing.T) {
	for n := 1; n <= 128; n++ {
		opt := mustChain(Optimal(n))
		if err := opt.Verify(n); err != nil {
			t.Fatalf("optimal(%d): %v", n, err)
		}
		bin := mustChain(Binary(n))
		fac := mustChain(Factor(n))
		if len(opt) > len(bin) {
			t.Errorf("optimal(%d) = %d steps, binary does %d", n, len(opt), len(bin))
		}
		if len(opt) > len(fac) {
			t.Errorf("optimal(%d) = %d steps, factor does %d", n, len(opt), len(fac))
		}
		if len(opt) < LowerBound(n) {
			t.Errorf("optimal(%d) = %d steps below lower bound %d", n, len(opt), LowerBound(n))
		}
	}
}

func TestFactorBeatsBinarySomewhere(t *testing.T) {
	// n=15: binary needs 6 multiplies, factor (3·5) needs 5.
	bin := mustChain(Binary(15))
	fac := mustChain(Factor(15))
	if len(fac) >= len(bin) {
		t.Errorf("factor(15) = %d, binary(15) = %d; factor should win", len(fac), len(bin))
	}
	if err := fac.Verify(15); err != nil {
		t.Error(err)
	}
}

func TestOptimalKnownValues(t *testing.T) {
	// l(n) values from the addition-chain literature (OEIS A003313).
	want := map[int]int{
		1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 3, 9: 4, 10: 4,
		11: 5, 12: 4, 13: 5, 14: 5, 15: 5, 16: 4, 19: 6, 23: 6, 29: 7,
		47: 8, 71: 9, 127: 10,
	}
	for n, l := range want {
		c := mustChain(Optimal(n))
		if len(c) != l {
			t.Errorf("l(%d) = %d, want %d", n, len(c), l)
		}
	}
}

func TestOptimalLargeFallsBack(t *testing.T) {
	n := MaxSearchTarget + 100
	c := mustChain(Optimal(n))
	if err := c.Verify(n); err != nil {
		t.Error(err)
	}
	bin := mustChain(Binary(n))
	if len(c) > len(bin) {
		t.Errorf("fallback chain (%d) longer than binary (%d)", len(c), len(bin))
	}
}

func TestComposeComputesProduct(t *testing.T) {
	a := mustChain(Binary(6))
	b := mustChain(Binary(7))
	c := Compose(a, b)
	if err := c.Verify(42); err != nil {
		t.Errorf("compose(6, 7): %v", err)
	}
}

func TestGenerate(t *testing.T) {
	for _, s := range []Strategy{StrategyNaive, StrategySquareIncrement, StrategyBinary, StrategyFactor, StrategyOptimal} {
		c, err := Generate(s, 12)
		if err != nil {
			t.Errorf("Generate(%v, 12): %v", s, err)
			continue
		}
		if err := c.Verify(12); err != nil {
			t.Errorf("Generate(%v, 12): %v", s, err)
		}
	}
	if _, err := Generate(Strategy(99), 12); err == nil {
		t.Error("unknown strategy accepted")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy has empty name")
	}
	if StrategyBinary.String() != "binary" {
		t.Errorf("binary strategy prints %q", StrategyBinary.String())
	}
}

func TestErrorsOnBadN(t *testing.T) {
	for _, gen := range []func(int) (Chain, error){Naive, SquareIncrement, Binary, Factor, Optimal} {
		if _, err := gen(0); err == nil {
			t.Error("generator accepted n=0")
		}
		if _, err := gen(-3); err == nil {
			t.Error("generator accepted n=-3")
		}
	}
}

func TestMalformedChainRejected(t *testing.T) {
	bad := Chain{{I: 0, J: 5}}
	if _, err := bad.Exponents(); err == nil {
		t.Error("out-of-range step accepted")
	}
	if err := bad.Verify(3); err == nil {
		t.Error("Verify accepted malformed chain")
	}
}

func TestTwoTensorSafeRejectsTemporaries(t *testing.T) {
	// Chain for 15 via factor(3·5) references an intermediate (x^3) after
	// later elements exist — needs a temporary.
	fac := mustChain(Factor(15))
	if fac.TwoTensorSafe() {
		t.Error("factor(15) reported two-tensor safe; it needs a temporary")
	}
}
