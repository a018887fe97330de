package vm

import (
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Specialized run kernels for the hottest (op, dtype) pairs: word-wide
// native arithmetic instead of the generic widen-to-class, call the
// scalar kernel, round-back bodies of loops.go. compileLoop tries these first, so every sweep —
// fused or singleton, and the linear reduction epilogue — picks them up
// with no planning changes.
//
// Every specialization here is bit-for-bit identical to the generic body
// it replaces, by construction rather than by tolerance:
//
//   - float32 ⊗ float32 for +,-,*,/: rounding a float64-exact sum,
//     difference, product, or quotient of two float32s to float32 equals
//     the native float32 operation (double rounding is innocuous because
//     float64 carries more than 2·24+2 significand bits).
//   - float32 ⊗ const: the same theorem applies only when the float64
//     constant is exactly a float32, so the form is gated on
//     float64(float32(c)) == c and declines otherwise.
//   - uint8/int32/int64 +,-,*: two's-complement wrap is a ring
//     homomorphism under truncation, so narrowing the int64-class result
//     equals native narrow arithmetic for any operands and any constant —
//     no representability gate: truncating the constant first commutes
//     with truncating the result.
//   - float64 +,-,*,/: float64 is the computation class itself, so the
//     native form is the generic body minus the indirect kernel call.
//
// The per-kernel differential suite in loops_specialized_test.go pins
// each of these equalities against the generic bodies.
func specializedBinary[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, a, b ksrc) (kernel[T, T], bool) {
	if a.isConst {
		return nil, false
	}
	var k any
	ok := false
	switch dt {
	case tensor.Float32:
		c := float32(b.cf)
		if !b.isConst || float64(c) == b.cf {
			k, ok = nativeBinary(op, b.isConst, c)
		}
	case tensor.Float64:
		k, ok = nativeBinary(op, b.isConst, b.cf)
	case tensor.Int64:
		k, ok = nativeIntBinary(op, b.isConst, b.ci)
	case tensor.Int32:
		k, ok = nativeIntBinary(op, b.isConst, int32(b.ci))
	case tensor.Uint8:
		k, ok = nativeIntBinary(op, b.isConst, uint8(b.ci))
	}
	if !ok {
		return nil, false
	}
	kt, ok := k.(kernel[T, T])
	return kt, ok
}

// nativeIntBinary restricts nativeBinary to the wrap-exact integer ops.
func nativeIntBinary[T uint8 | int32 | int64](op bytecode.Opcode, bConst bool, c T) (kernel[T, T], bool) {
	if op == bytecode.OpDivide {
		return nil, false // integer division by zero yields 0, not a trap
	}
	return nativeBinary(op, bConst, c)
}

// nativeBinary compiles x ⊗ y (or x ⊗ c when bConst) in T's own
// arithmetic.
func nativeBinary[T uint8 | int32 | int64 | float32 | float64](op bytecode.Opcode, bConst bool, c T) (kernel[T, T], bool) {
	switch op {
	case bytecode.OpAdd:
		if bConst {
			return func(d, x, _ []T) {
				x = x[:len(d)]
				for i := range d {
					d[i] = x[i] + c
				}
			}, true
		}
		return func(d, x, y []T) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] + y[i]
			}
		}, true
	case bytecode.OpSubtract:
		if bConst {
			return func(d, x, _ []T) {
				x = x[:len(d)]
				for i := range d {
					d[i] = x[i] - c
				}
			}, true
		}
		return func(d, x, y []T) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] - y[i]
			}
		}, true
	case bytecode.OpMultiply:
		if bConst {
			return func(d, x, _ []T) {
				x = x[:len(d)]
				for i := range d {
					d[i] = x[i] * c
				}
			}, true
		}
		return func(d, x, y []T) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] * y[i]
			}
		}, true
	case bytecode.OpDivide:
		if bConst {
			return func(d, x, _ []T) {
				x = x[:len(d)]
				for i := range d {
					d[i] = x[i] / c
				}
			}, true
		}
		return func(d, x, y []T) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = x[i] / y[i]
			}
		}, true
	}
	return nil, false
}
