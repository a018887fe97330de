package vm

import (
	"sync/atomic"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Run kernels: the compiled inner loops of every elementwise sweep.
// compileLoop turns one instruction into a buffer-independent kernel with
// the arithmetic inlined — the interpreted equivalent of the kernel the
// paper's OpenCL backend would JIT, instantiated per element type through
// Go generics. A kernel knows nothing about registers, views or blocking:
// the loop nest (nest.go) hands it equal-length unit-stride runs, so it is
// compiled once at plan time and shared by every execution of the plan.
//
// Semantics are pinned to the accessor interpreter (exec.go): float
// dtypes compute in the float64 class and convert back through the
// storage type (a no-op for float64; innocuous double rounding for
// float32 +,-,*,/), integer dtypes compute in the exact int64 class
// (falling back to the float class for ops with no integer kernel,
// exactly as slowElementwise does), and bool stores normalize to 0/1 the
// way Buffer.Set/SetInt do. This keeps fused execution bit-identical to
// the interpreter for every dtype.

// kernel computes dst[i] = op(a[i], b[i]) for i < len(dst). Array
// operands are at least len(dst) long; a constant operand is captured by
// the closure and its slice is nil, as is b for unary ops. dst may be the
// very slice passed as a or b (in-place steps), never a shifted overlap.
type kernel[D, S tensor.Elem] func(dst []D, a, b []S)

// ksrc describes one input operand to the kernel compiler: an array, or a
// constant carried in both computation classes (cf for the float64 class,
// ci for the exact int64 class — mirroring how resolveSources
// materializes constants for the accessor path).
type ksrc struct {
	isConst bool
	cf      float64
	ci      int64
}

func constSrc(c bytecode.Constant) ksrc { return ksrc{isConst: true, cf: c.Float(), ci: c.Int()} }

// kernelCompilations counts compileLoop calls and fold run kernels built
// (valueFold, argFold), so tests can assert that executing a compiled plan
// builds no kernels.
var kernelCompilations atomic.Int64

// compileLoop compiles op over operands of dtype dt (storage type T).
func compileLoop[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, srcs []ksrc) (kernel[T, T], bool) {
	kernelCompilations.Add(1)
	isBool := dt == tensor.Bool
	intClass := !dt.IsFloat()
	switch len(srcs) {
	case 1:
		s := srcs[0]
		if op == bytecode.OpIdentity && !isBool {
			// T(class(v)) == v for every non-bool storage type.
			if !s.isConst {
				return func(d, a, _ []T) { copy(d, a) }, true
			}
			if intClass {
				return fill[T, T](T(s.ci)), true
			}
			return fill[T, T](T(s.cf)), true
		}
		if intClass {
			if k, ok := intUnaryKernel(op); ok {
				return classUnary[T](k, isBool, s.isConst, s.ci), true
			}
		}
		// Transcendentals on integers compute in the float class and
		// truncate back through the storage type, matching
		// slowUnaryFloat + Buffer.Set.
		k, ok := floatUnaryKernel(op)
		if !ok {
			return nil, false
		}
		return classUnary[T](k, isBool, s.isConst, s.cf), true
	case 2:
		a, b := srcs[0], srcs[1]
		if !isBool {
			// Specialized native-arithmetic kernels first; each declines
			// unless its bit-for-bit equivalence argument holds
			// (loops_specialized.go).
			if k, ok := specializedBinary[T](dt, op, a, b); ok {
				return k, true
			}
		}
		if intClass {
			if k, ok := intBinaryKernel(op); ok {
				return classBinary[T](k, isBool, a.isConst, b.isConst, a.ci, b.ci), true
			}
		} else if !a.isConst && b.isConst {
			if k, ok := widenedConstBinary[T](op, b.cf); ok {
				return k, true
			}
		}
		// Ops with no integer kernel (ARCTAN2) compute in the float class
		// and truncate back, as the interpreted path does.
		k, ok := floatBinaryKernel(op)
		if !ok {
			return nil, false
		}
		return classBinary[T](k, isBool, a.isConst, b.isConst, a.cf, b.cf), true
	}
	return nil, false
}

// fill writes the constant c across the run.
func fill[D, S tensor.Elem](c D) kernel[D, S] {
	return func(d []D, _, _ []S) {
		for i := range d {
			d[i] = c
		}
	}
}

// store converts a class value to the storage type the way Buffer.Set and
// Buffer.SetInt do: bool normalizes to 0/1, everything else C-casts.
func store[T tensor.Elem, C int64 | float64](v C, isBool bool) T {
	if isBool {
		return b01[T](v != 0)
	}
	return T(v)
}

// classUnary is the generic unary body: widen to class C, apply the
// scalar kernel, convert back. c is the operand's value when constant.
func classUnary[T tensor.Elem, C int64 | float64](k func(C) C, isBool, isConst bool, c C) kernel[T, T] {
	if isConst {
		return fill[T, T](store[T](k(c), isBool))
	}
	if staged, ok := stagedFloat32Unary[T](any(k)); ok {
		return staged
	}
	if isBool {
		return func(d, a, _ []T) {
			a = a[:len(d)]
			for i := range d {
				d[i] = b01[T](k(C(a[i])) != 0)
			}
		}
	}
	// The transcendental sweeps live here: keep the loop free of the
	// bool test.
	return func(d, a, _ []T) {
		a = a[:len(d)]
		for i := range d {
			d[i] = T(k(C(a[i])))
		}
	}
}

// classBinary is the generic binary body for any constant/array operand
// mix. ca and cb are the operands' class values when constant.
func classBinary[T tensor.Elem, C int64 | float64](k func(a, b C) C, isBool, aConst, bConst bool, ca, cb C) kernel[T, T] {
	if aConst && bConst {
		return fill[T, T](store[T](k(ca, cb), isBool))
	}
	if staged, ok := stagedFloat32Binary[T](any(k), aConst, bConst, any(ca), any(cb)); ok {
		return staged
	}
	switch {
	case aConst:
		return func(d, _, y []T) {
			y = y[:len(d)]
			for i := range d {
				d[i] = store[T](k(ca, C(y[i])), isBool)
			}
		}
	case bConst:
		return func(d, x, _ []T) {
			x = x[:len(d)]
			for i := range d {
				d[i] = store[T](k(C(x[i]), cb), isBool)
			}
		}
	default:
		return func(d, x, y []T) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = store[T](k(C(x[i]), C(y[i])), isBool)
			}
		}
	}
}

// widenedConstBinary holds the hand-inlined float-class forms of x ⊗ c
// for the one case nativeBinary must decline: a float32 array and a
// constant that is not exactly a float32. The scalar kernel's indirect
// call is replaced by the operator itself.
func widenedConstBinary[T tensor.Elem](op bytecode.Opcode, c float64) (kernel[T, T], bool) {
	switch op {
	case bytecode.OpAdd:
		return func(d, x, _ []T) {
			x = x[:len(d)]
			for i := range d {
				d[i] = T(float64(x[i]) + c)
			}
		}, true
	case bytecode.OpSubtract:
		return func(d, x, _ []T) {
			x = x[:len(d)]
			for i := range d {
				d[i] = T(float64(x[i]) - c)
			}
		}, true
	case bytecode.OpMultiply:
		return func(d, x, _ []T) {
			x = x[:len(d)]
			for i := range d {
				d[i] = T(float64(x[i]) * c)
			}
		}, true
	case bytecode.OpDivide:
		return func(d, x, _ []T) {
			x = x[:len(d)]
			for i := range d {
				d[i] = T(float64(x[i]) / c)
			}
		}, true
	}
	return nil, false
}

// castKernel is BH_IDENTITY between registers of different dtypes
// (Array.AsType), with exactly the accessor path's conversion semantics:
// integer/bool to integer/bool moves through the exact int64 class
// (GetInt → SetInt), anything involving a float through float64
// (Get → Set), and a bool destination normalizes to 0/1.
func castKernel[D, S tensor.Elem](dstDT, srcDT tensor.DType) kernel[D, S] {
	isBool := dstDT == tensor.Bool
	if !dstDT.IsFloat() && !srcDT.IsFloat() {
		return func(d []D, a, _ []S) {
			a = a[:len(d)]
			for i := range d {
				d[i] = store[D](int64(a[i]), isBool)
			}
		}
	}
	return func(d []D, a, _ []S) {
		a = a[:len(d)]
		for i := range d {
			d[i] = store[D](float64(a[i]), isBool)
		}
	}
}

// Staged float32 kernels. A float32 loop of the form
// d[i] = float32(k(float64(a[i]))) with k an out-of-line math function
// runs ~4x slower than the identical float64 loop on amd64: the
// widen/call/narrow sequence serializes on the conversion around every
// call. Splitting it into three passes over a small float64 scratch —
// widen, apply, narrow — performs the same conversions on the same values
// (bit-identical results) at float64 speed. The scratch lives on the
// kernel's stack, so kernels stay re-entrant and shareable.
const stageLen = 1024

func stagedFloat32Unary[T tensor.Elem](k any) (kernel[T, T], bool) {
	kf, ok := k.(func(float64) float64)
	if !ok {
		return nil, false
	}
	staged, ok := any(kernel[float32, float32](func(d, a, _ []float32) {
		var w [stageLen]float64
		for len(d) > 0 {
			n := min(len(d), stageLen)
			ws := w[:n]
			for i, v := range a[:n] {
				ws[i] = float64(v)
			}
			for i, v := range ws {
				ws[i] = kf(v)
			}
			for i, v := range ws {
				d[i] = float32(v)
			}
			d, a = d[n:], a[n:]
		}
	})).(kernel[T, T])
	return staged, ok
}

func stagedFloat32Binary[T tensor.Elem](k any, aConst, bConst bool, ca, cb any) (kernel[T, T], bool) {
	kf, ok := k.(func(a, b float64) float64)
	if !ok {
		return nil, false
	}
	fa, _ := ca.(float64)
	fb, _ := cb.(float64)
	// widen fills ws from the operand's next block, or with its constant.
	widen := func(ws []float64, src []float32, isConst bool, c float64) {
		if isConst {
			for i := range ws {
				ws[i] = c
			}
			return
		}
		for i, v := range src[:len(ws)] {
			ws[i] = float64(v)
		}
	}
	staged, ok := any(kernel[float32, float32](func(d, x, y []float32) {
		var wx, wy [stageLen]float64
		for off := 0; off < len(d); off += stageLen {
			n := min(len(d)-off, stageLen)
			xs, ys := wx[:n], wy[:n]
			var xb, yb []float32
			if !aConst {
				xb = x[off:]
			}
			if !bConst {
				yb = y[off:]
			}
			widen(xs, xb, aConst, fa)
			widen(ys, yb, bConst, fb)
			for i := range xs {
				xs[i] = kf(xs[i], ys[i])
			}
			for i, v := range xs {
				d[off+i] = float32(v)
			}
		}
	})).(kernel[T, T])
	return staged, ok
}

// b01 is the bool-normalized store value.
func b01[T tensor.Elem](v bool) T {
	if v {
		return 1
	}
	return 0
}
