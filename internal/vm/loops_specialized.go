package vm

import (
	"math"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Specialized run kernels for the hottest (op, dtype) pairs: native
// arithmetic in the storage type instead of the generic widen-to-class,
// call the scalar kernel, round-back bodies of loops.go. compileLoop tries these first, so every sweep —
// fused or singleton, a reduction epilogue's producers too — picks them up
// with no planning changes. A fold nest's reduction or scan runs the same
// way (valueFold, argFold, scanRun): one loop per run of a line, its body
// the class kernel's written inline.
//
// Every specialization here is bit-for-bit identical to the generic body
// it replaces, by construction rather than by tolerance:
//
//   - float32 ⊗ float32 for +,-,*,/: rounding a float64-exact sum,
//     difference, product, or quotient of two float32s to float32 equals
//     the native float32 operation (double rounding is innocuous because
//     float64 carries more than 2·24+2 significand bits).
//   - float32 ⊗ const: the same theorem applies only when the float64
//     constant is exactly a float32, so each run call gates the form on
//     float64(float32(c)) == c and runs the widened body otherwise.
//   - uint8/int32/int64 +,-,*: two's-complement wrap is a ring
//     homomorphism under truncation, so narrowing the int64-class result
//     equals native narrow arithmetic for any operands and any constant —
//     no representability gate: truncating the constant first commutes
//     with truncating the result.
//   - float64 +,-,*,/: float64 is the computation class itself, so the
//     native form is the generic body minus the indirect kernel call.
//   - folds and scans: each step is the class kernel's own operation on
//     the same operands in the same left-to-right order, after the same
//     E(x) widening — math.Max and math.Min's results, not the builtins'
//     (math.Max(NaN, +Inf) is +Inf, the builtin max gives NaN) — and an
//     index fold keeps argBetter's rule: ties keep the lower index, the
//     first NaN wins. A scan stores each prefix as Buffer.Set or SetInt
//     does (store).
//
// The per-kernel differential suites in loops_specialized_test.go and
// nest_fold_test.go pin each of these equalities against the generic
// bodies.
func specializedBinary[T tensor.Elem](key loopKey) (kernel[T, T], bool) {
	if key.aConst {
		return nil, false
	}
	var k any
	ok := false
	switch key.dt {
	case tensor.Float32:
		k, ok = nativeBinary[float32](key.op, key.bConst)
		if ok && key.bConst {
			widened, _ := widenedConstBinary(key.op)
			k = float32ConstGate(k.(kernel[float32, float32]), widened)
		}
	case tensor.Float64:
		k, ok = nativeBinary[float64](key.op, key.bConst)
	case tensor.Int64:
		k, ok = nativeIntBinary[int64](key.op, key.bConst)
	case tensor.Int32:
		k, ok = nativeIntBinary[int32](key.op, key.bConst)
	case tensor.Uint8:
		k, ok = nativeIntBinary[uint8](key.op, key.bConst)
	}
	if !ok {
		return nil, false
	}
	kt, ok := k.(kernel[T, T])
	return kt, ok
}

// float32ConstGate is float32 x ⊗ c: per call, the native body when c is
// exactly a float32, the widened one otherwise (a NaN too).
func float32ConstGate(native, widened kernel[float32, float32]) kernel[float32, float32] {
	return func(d, x, y []float32, c args) {
		if float64(float32(c[1].f)) == c[1].f {
			native(d, x, y, c)
		} else {
			widened(d, x, y, c)
		}
	}
}

// nativeIntBinary restricts nativeBinary to the wrap-exact integer ops.
func nativeIntBinary[T uint8 | int32 | int64](op bytecode.Opcode, bConst bool) (kernel[T, T], bool) {
	if op == bytecode.OpDivide {
		return nil, false // integer division by zero yields 0, not a trap
	}
	return nativeBinary[T](op, bConst)
}

// nativeBinary compiles x ⊗ y (or x ⊗ c when bConst) in T's own
// arithmetic.
func nativeBinary[T uint8 | int32 | int64 | float32 | float64](op bytecode.Opcode, bConst bool) (kernel[T, T], bool) {
	switch op {
	case bytecode.OpAdd:
		if bConst {
			return func(d, x, _ []T, k args) {
				c, x := storageOf[T](k[1]), x[:len(d)]
				for i := range d {
					d[i] = x[i] + c
				}
			}, true
		}
		return func(d, x, y []T, _ args) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] + y[i]
			}
		}, true
	case bytecode.OpSubtract:
		if bConst {
			return func(d, x, _ []T, k args) {
				c, x := storageOf[T](k[1]), x[:len(d)]
				for i := range d {
					d[i] = x[i] - c
				}
			}, true
		}
		return func(d, x, y []T, _ args) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] - y[i]
			}
		}, true
	case bytecode.OpMultiply:
		if bConst {
			return func(d, x, _ []T, k args) {
				c, x := storageOf[T](k[1]), x[:len(d)]
				for i := range d {
					d[i] = x[i] * c
				}
			}, true
		}
		return func(d, x, y []T, _ args) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] * y[i]
			}
		}, true
	case bytecode.OpDivide:
		if bConst {
			return func(d, x, _ []T, k args) {
				c, x := storageOf[T](k[1]), x[:len(d)]
				for i := range d {
					d[i] = x[i] / c
				}
			}, true
		}
		return func(d, x, y []T, _ args) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] / y[i]
			}
		}, true
	}
	return nil, false
}

// chainWidth is the most inputs one chain step reads: a five-point stencil.
const chainWidth = 5

// chainBody is a chain step's loop over k ≤ chainWidth input runs:
// d[i] = T(v·m) − s, v folding x0 ⊕ x1 ⊕ … ⊕ xk-1 left to right in T's own
// arithmetic — each intermediate is what the native step kernel stores.
// Every product is converted to T before it meets a sum: the Go spec lets
// the compiler fuse only an unconverted product into a multiply-add. (m, s)
// folds a constant step (chainTail), or is (1, 0), an exact identity here;
// the step passes them per call, from the constant vector it runs under.
func chainBody[T tensor.Elem](mul bool, k int) func(d []T, x [chainWidth][]T, m, s T) {
	return func(d []T, x [chainWidth][]T, m, s T) {
		a, b, c, e, f := x[0][:len(d)], x[1][:len(d)], x[2][:len(d)], x[3][:len(d)], x[4][:len(d)]
		switch {
		case k == 2 && mul:
			for i := range d {
				d[i] = T(T(a[i]*b[i])*m) - s
			}
		case k == 2:
			for i := range d {
				d[i] = T(T(a[i]+b[i])*m) - s
			}
		case k == 3 && mul:
			for i := range d {
				d[i] = T(T(T(a[i]*b[i])*c[i])*m) - s
			}
		case k == 3:
			for i := range d {
				d[i] = T(T(T(a[i]+b[i])+c[i])*m) - s
			}
		case k == 4 && mul:
			for i := range d {
				d[i] = T(T(T(T(a[i]*b[i])*c[i])*e[i])*m) - s
			}
		case k == 4:
			for i := range d {
				d[i] = T(T(T(T(a[i]+b[i])+c[i])+e[i])*m) - s
			}
		case mul:
			for i := range d {
				d[i] = T(T(T(T(T(a[i]*b[i])*c[i])*e[i])*f[i])*m) - s
			}
		default:
			for i := range d {
				d[i] = T(T(T(T(T(a[i]+b[i])+c[i])+e[i])+f[i])*m) - s
			}
		}
	}
}

var chainTailOps = []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpDivide}

// chainTail returns (m, s) with T(v·m) − s ≡ v ⊗ c bit for bit, or false:
// v·1 is v, v − (−c) is v + c in IEEE 754 and in wrapping integer
// arithmetic, and − +0 keeps every value, −0 included. Division does not
// fold, nor a NaN (−c would flip its sign) or a constant T cannot hold.
// A chain step asks once per run call.
func chainTail[T tensor.Elem](op bytecode.Opcode, c scalar) (m, s T, ok bool) {
	v := storageOf[T](c)
	switch {
	case isFloat[T]() && float64(v) != c.f: // a NaN, or no float32
	case op == bytecode.OpMultiply:
		return v, 0, true
	case op == bytecode.OpAdd:
		return 1, -v, true
	case op == bytecode.OpSubtract:
		return 1, v, true
	}
	return 1, 0, false
}

// valueFold compiles a value fold's run kernel for base op base in class
// E (float64, or exact int64) over storage type T: acc ⊕ E(s[0]) ⊕ E(s[1])
// ⊕ …, left to right, with floatBinaryKernel's or intBinaryKernel's body
// for base written inline.
func valueFold[T tensor.Elem, E int64 | float64](base bytecode.Opcode) (func(acc E, s []T) E, bool) {
	kernelCompilations.Add(1)
	switch base {
	case bytecode.OpAdd:
		return func(acc E, s []T) E {
			for _, x := range s {
				acc += E(x)
			}
			return acc
		}, true
	case bytecode.OpMultiply:
		return func(acc E, s []T) E {
			for _, x := range s {
				acc *= E(x)
			}
			return acc
		}, true
	case bytecode.OpLogicalAnd:
		return func(acc E, s []T) E {
			for _, x := range s {
				acc = E(b2i(acc != 0 && E(x) != 0))
			}
			return acc
		}, true
	case bytecode.OpLogicalOr:
		return func(acc E, s []T) E {
			for _, x := range s {
				acc = E(b2i(acc != 0 || E(x) != 0))
			}
			return acc
		}, true
	case bytecode.OpMaximum, bytecode.OpMinimum:
		var k any
		if _, float := any(E(0)).(float64); float {
			k = floatExtremum[T](base == bytecode.OpMaximum)
		} else {
			k = intExtremum[T](base == bytecode.OpMaximum)
		}
		return k.(func(E, []T) E), true
	}
	return nil, false
}

// floatExtremum folds with fmax or fmin: math.Max and math.Min, as
// floatBinaryKernel calls them, but inlined. An element on the losing side
// of the accumulator leaves it as it is under every special case (neither
// is a NaN, the winner may be the infinity, and they are not both zero), so
// only the others go through the special cases.
func floatExtremum[T tensor.Elem](isMax bool) func(acc float64, s []T) float64 {
	if isMax {
		return func(acc float64, s []T) float64 {
			for _, x := range s {
				if v := float64(x); !(v < acc) {
					acc = fmax(acc, v)
				}
			}
			return acc
		}
	}
	return func(acc float64, s []T) float64 {
		for _, x := range s {
			if v := float64(x); !(v > acc) {
				acc = fmin(acc, v)
			}
		}
		return acc
	}
}

// fmax is math.Max written so that it inlines (on amd64 math.Max is an
// assembly routine, which no loop can inline), in its order: +Inf first —
// the operand that is +Inf — then NaN — the canonical math.NaN(),
// 0x7FF8000000000001, as the assembly returns it — then ±0, where the sign
// bits' AND gives +0 unless both are −0.
func fmax(x, y float64) float64 {
	switch {
	case x > math.MaxFloat64:
		return x
	case y > math.MaxFloat64:
		return y
	case x != x || y != y:
		return math.NaN()
	case x == 0 && x == y:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x > y:
		return x
	}
	return y
}

// fmin is math.Min as fmax is math.Max: −Inf first, then NaN, then ±0,
// where the sign bits' OR gives −0 unless both are +0.
func fmin(x, y float64) float64 {
	switch {
	case x < -math.MaxFloat64:
		return x
	case y < -math.MaxFloat64:
		return y
	case x != x || y != y:
		return math.NaN()
	case x == 0 && x == y:
		return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
	case x < y:
		return x
	}
	return y
}

// intExtremum folds with intBinaryKernel's maximum or minimum; on int64
// the builtins are the same comparison.
func intExtremum[T tensor.Elem](isMax bool) func(acc int64, s []T) int64 {
	if isMax {
		return func(acc int64, s []T) int64 {
			for _, x := range s {
				acc = max(acc, int64(x))
			}
			return acc
		}
	}
	return func(acc int64, s []T) int64 {
		for _, x := range s {
			acc = min(acc, int64(x))
		}
		return acc
	}
}

// scanRun compiles a scan's run kernel for base op base in class E over
// input storage T and output storage D: d[i] = acc ⊕ E(s[0]) ⊕ … ⊕ E(s[i]),
// left to right, stored as Buffer.Set or SetInt stores it.
func scanRun[D, T tensor.Elem, E int64 | float64](base bytecode.Opcode, isBool bool) func(acc E, d []D, s []T) E {
	kernelCompilations.Add(1)
	if base == bytecode.OpMultiply {
		return func(acc E, d []D, s []T) E {
			d = d[:len(s)]
			for i, x := range s {
				acc *= E(x)
				d[i] = store[D](acc, isBool)
			}
			return acc
		}
	}
	return func(acc E, d []D, s []T) E {
		d = d[:len(s)]
		for i, x := range s {
			acc += E(x)
			d[i] = store[D](acc, isBool)
		}
		return acc
	}
}

// argFold compiles an index fold's run kernel: the best of best, found at
// axis position at, and the elements of s, at positions j, j+1, …, by
// argBetter's rule inline — a later element wins only when strictly
// better, or when it is the first NaN.
func argFold[T tensor.Elem, E int64 | float64](argmax bool) func(best E, at int, s []T, j int) (E, int) {
	kernelCompilations.Add(1)
	if argmax {
		return func(best E, at int, s []T, j int) (E, int) {
			for i, x := range s {
				if v := E(x); v > best || v != v && best == best {
					best, at = v, j+i
				}
			}
			return best, at
		}
	}
	return func(best E, at int, s []T, j int) (E, int) {
		for i, x := range s {
			if v := E(x); v < best || v != v && best == best {
				best, at = v, j+i
			}
		}
		return best, at
	}
}
