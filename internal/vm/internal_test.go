package vm

import (
	"testing"
	"testing/quick"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

func TestViewInjective(t *testing.T) {
	tests := []struct {
		name string
		view tensor.View
		want bool
	}{
		{"contiguous 1d", tensor.NewView(tensor.MustShape(10)), true},
		{"contiguous 2d", tensor.NewView(tensor.MustShape(3, 4)), true},
		{"strided", mustView(0, tensor.MustShape(5), []int{2}), true},
		{"negative stride", mustView(9, tensor.MustShape(10), []int{-1}), true},
		{"broadcast stride 0", mustView(0, tensor.MustShape(5), []int{0}), false},
		{"singleton dim stride 0 ok", mustView(0, tensor.MustShape(1, 4), []int{0, 1}), true},
		{"colliding strides", mustView(0, tensor.MustShape(4, 4), []int{2, 1}), false},
		{"transposed", tensor.NewView(tensor.MustShape(3, 4)).Transpose(), true},
		{"spread ok", mustView(0, tensor.MustShape(3, 4), []int{10, 2}), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := viewInjective(tt.view); got != tt.want {
				t.Errorf("viewInjective = %v, want %v", got, tt.want)
			}
		})
	}
}

func mustView(offset int, shape tensor.Shape, strides []int) tensor.View {
	v, err := tensor.NewStridedView(offset, shape, strides)
	if err != nil {
		panic(err)
	}
	return v
}

func TestViewInjectiveNeverWrong(t *testing.T) {
	// Property: when viewInjective says true, all addressed indices are
	// in fact distinct (the condition is allowed to be conservative the
	// other way).
	f := func(d1, d2, s1raw, s2raw, off uint8) bool {
		shape := tensor.MustShape(int(d1%4)+1, int(d2%4)+1)
		strides := []int{int(s1raw % 12), int(s2raw % 5)}
		v := tensor.View{Offset: int(off % 8), Shape: shape, Strides: strides}
		if !viewInjective(v) {
			return true
		}
		seen := map[int]bool{}
		it := tensor.NewIterator(v)
		for it.Next() {
			if seen[it.Index()] {
				return false
			}
			seen[it.Index()] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestWorkerPoolRunsAllChunks(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.close()
	n := 10000
	hits := make([]int32, n)
	pool.parallelFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("element %d visited %d times", i, h)
		}
	}
}

func TestWorkerPoolSmallRangeInline(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.close()
	count := 0
	pool.parallelFor(10, 1000, func(lo, hi int) {
		count += hi - lo // runs inline: no race possible
	})
	if count != 10 {
		t.Errorf("count = %d", count)
	}
	pool.parallelFor(0, 1, func(lo, hi int) {
		t.Error("body called for empty range")
	})
}

func TestIpow(t *testing.T) {
	tests := []struct {
		base, exp, want int64
	}{
		{2, 10, 1024},
		{3, 0, 1},
		{0, 0, 1},
		{5, 1, 5},
		{-2, 3, -8},
		{-2, 4, 16},
		{7, -1, 0},
		{1, -5, 1},
		{-1, -3, -1},
		{-1, -4, 1},
	}
	for _, tt := range tests {
		if got := ipow(tt.base, tt.exp); got != tt.want {
			t.Errorf("ipow(%d, %d) = %d, want %d", tt.base, tt.exp, got, tt.want)
		}
	}
}

func TestShifts(t *testing.T) {
	if shiftL(1, 70) != 0 || shiftL(1, -1) != 0 {
		t.Error("out-of-range left shift should be 0")
	}
	if shiftL(3, 2) != 12 {
		t.Error("3 << 2")
	}
	if shiftR(12, 2) != 3 {
		t.Error("12 >> 2")
	}
	if shiftR(12, 64) != 0 {
		t.Error("out-of-range right shift should be 0")
	}
}

func TestKernelCoverage(t *testing.T) {
	// Every binary/unary op-code in the table must have a float kernel;
	// the VM falls back to it for any dtype combination.
	for _, op := range bytecodeOps() {
		switch op.Info().Kind {
		case bytecode.KindBinary:
			if _, ok := floatBinaryKernel(op); !ok {
				t.Errorf("no float kernel for binary %s", op)
			}
		case bytecode.KindUnary:
			if _, ok := floatUnaryKernel(op); !ok {
				t.Errorf("no float kernel for unary %s", op)
			}
		}
	}
}

func bytecodeOps() []bytecode.Opcode { return bytecode.Opcodes() }
