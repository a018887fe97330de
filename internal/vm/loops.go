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
// The semantics are those of Buffer's accessors: float dtypes compute in
// the float64 class and convert back through the storage type (a no-op
// for float64; innocuous double rounding for float32 +,-,*,/), integer
// dtypes compute in the exact int64 class (falling back to the float
// class for ops with no integer kernel), and bool stores normalize to 0/1
// the way Buffer.Set/SetInt do. A step whose operands are of other dtypes
// than its result computes in the same classes (promotedStep). The
// differential suites hold every kernel bit for bit against the reference
// interpreter, which applies the scalar kernels through Buffer.Get/Set
// (exec_ref_test.go).

// kernel computes dst[i] = op(a[i], b[i]) for i < len(dst). Array
// operands are at least len(dst) long; a constant operand's slice is nil,
// as is b for unary ops, and its value is in c, which its step reads once
// per call: a kernel holds no value. dst may be the very slice passed as a
// or b (in-place steps), never a shifted overlap.
type kernel[D, S tensor.Elem] func(dst []D, a, b []S, c args)

// scalar is a constant operand's value in the float64 class (f) and the
// exact int64 class (i): Constant.Float and Constant.Int.
type scalar struct {
	f float64
	i int64
}

// args are a run call's constant operands: the first input's, then the
// second's; zero for an array operand.
type args [2]scalar

// loopKey is everything a run kernel depends on: the storage dtype, the
// op, its arity, and which inputs are constants — not their values.
type loopKey struct {
	dt             tensor.DType
	op             bytecode.Opcode
	arity          int
	aConst, bConst bool
}

// kernelCompilations counts compileLoop calls and fold run kernels built
// (valueFold, argFold), so tests can assert that executing a compiled plan
// builds no kernels.
var kernelCompilations atomic.Int64

// compileLoop compiles key's op over operands of storage type T.
func compileLoop[T tensor.Elem](key loopKey) (kernel[T, T], bool) {
	kernelCompilations.Add(1)
	isBool := key.dt == tensor.Bool
	intClass := !key.dt.IsFloat()
	switch key.arity {
	case 1:
		if key.op == bytecode.OpIdentity && !isBool && !key.aConst {
			// T(class(v)) == v for every non-bool storage type.
			return func(d, a, _ []T, _ args) { copy(d, a) }, true
		}
		if intClass {
			if k, ok := intUnaryKernel(key.op); ok {
				return classUnary[T](k, isBool, key.aConst), true
			}
		}
		// Transcendentals on integers compute in the float class and
		// truncate back through the storage type, as Buffer.Set does.
		k, ok := floatUnaryKernel(key.op)
		if !ok {
			return nil, false
		}
		return classUnary[T](k, isBool, key.aConst), true
	case 2:
		if !isBool {
			// Specialized native-arithmetic kernels first; each declines
			// unless its bit-for-bit equivalence argument holds
			// (loops_specialized.go).
			if k, ok := specializedBinary[T](key); ok {
				return k, true
			}
		}
		if intClass {
			if k, ok := intBinaryKernel(key.op); ok {
				return classBinary[T](k, isBool, key.aConst, key.bConst), true
			}
		}
		// Ops with no integer kernel (ARCTAN2) compute in the float class
		// and truncate back.
		k, ok := floatBinaryKernel(key.op)
		if !ok {
			return nil, false
		}
		return classBinary[T](k, isBool, key.aConst, key.bConst), true
	}
	return nil, false
}

// storageOf is s in type T: its float64-class value converted for a float
// T, its int64-class value otherwise.
func storageOf[T tensor.Elem](s scalar) T {
	if isFloat[T]() {
		return T(s.f)
	}
	return T(s.i)
}

// isFloat reports whether T is a float type; it compiles to a constant.
func isFloat[T tensor.Elem]() bool {
	half := 0.5
	return T(half) != 0
}

// fill writes v across the run.
func fill[T tensor.Elem](d []T, v T) {
	for i := range d {
		d[i] = v
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
// scalar kernel, convert back.
func classUnary[T tensor.Elem, C int64 | float64](k func(C) C, isBool, isConst bool) kernel[T, T] {
	if isConst {
		return func(d, _, _ []T, c args) { fill(d, store[T](k(storageOf[C](c[0])), isBool)) }
	}
	if staged, ok := stagedFloat32Unary[T](any(k)); ok {
		return staged
	}
	if isBool {
		return func(d, a, _ []T, _ args) {
			a = a[:len(d)]
			for i := range d {
				d[i] = b01[T](k(C(a[i])) != 0)
			}
		}
	}
	// The transcendental sweeps live here: keep the loop free of the
	// bool test.
	return func(d, a, _ []T, _ args) {
		a = a[:len(d)]
		for i := range d {
			d[i] = T(k(C(a[i])))
		}
	}
}

// classBinary is the generic binary body for any constant/array operand
// mix.
func classBinary[T tensor.Elem, C int64 | float64](k func(a, b C) C, isBool, aConst, bConst bool) kernel[T, T] {
	if aConst && bConst {
		return func(d, _, _ []T, c args) { fill(d, store[T](k(storageOf[C](c[0]), storageOf[C](c[1])), isBool)) }
	}
	if staged, ok := stagedFloat32Binary[T](any(k), aConst, bConst); ok {
		return staged
	}
	switch {
	case aConst:
		return func(d, _, y []T, c args) {
			ca := storageOf[C](c[0])
			y = y[:len(d)]
			for i := range d {
				d[i] = store[T](k(ca, C(y[i])), isBool)
			}
		}
	case bConst:
		return func(d, x, _ []T, c args) {
			cb := storageOf[C](c[1])
			x = x[:len(d)]
			for i := range d {
				d[i] = store[T](k(C(x[i]), cb), isBool)
			}
		}
	default:
		return func(d, x, y []T, _ args) {
			x, y = x[:len(d)], y[:len(d)]
			for i := range d {
				d[i] = store[T](k(C(x[i]), C(y[i])), isBool)
			}
		}
	}
}

// widenedConstBinary holds the hand-inlined float-class forms of x ⊗ c
// for the one case nativeBinary must not run: a float32 array and a
// constant that is not exactly a float32 (float32ConstGate). The scalar
// kernel's indirect call is replaced by the operator itself.
func widenedConstBinary(op bytecode.Opcode) (kernel[float32, float32], bool) {
	switch op {
	case bytecode.OpAdd:
		return func(d, x, _ []float32, k args) {
			c, x := k[1].f, x[:len(d)]
			for i := range d {
				d[i] = float32(float64(x[i]) + c)
			}
		}, true
	case bytecode.OpSubtract:
		return func(d, x, _ []float32, k args) {
			c, x := k[1].f, x[:len(d)]
			for i := range d {
				d[i] = float32(float64(x[i]) - c)
			}
		}, true
	case bytecode.OpMultiply:
		return func(d, x, _ []float32, k args) {
			c, x := k[1].f, x[:len(d)]
			for i := range d {
				d[i] = float32(float64(x[i]) * c)
			}
		}, true
	case bytecode.OpDivide:
		return func(d, x, _ []float32, k args) {
			c, x := k[1].f, x[:len(d)]
			for i := range d {
				d[i] = float32(float64(x[i]) / c)
			}
		}, true
	}
	return nil, false
}

// castKernel converts a run between storage types with the accessor
// path's conversion semantics (Buffer.Get/Set, GetInt/SetInt): a bool
// destination normalizes to 0/1; integer/bool to integer moves through the
// exact int64 class, anything involving a float through float64. It is a
// cast's kernel, and a promoted step's widening to its class and narrowing
// from it.
func castKernel[D, S tensor.Elem](dstDT, srcDT tensor.DType) kernel[D, S] {
	switch {
	case dstDT == tensor.Bool:
		return func(d []D, a, _ []S, _ args) {
			a = a[:len(d)]
			for i := range d {
				d[i] = D(b2i(a[i] != 0))
			}
		}
	case !dstDT.IsFloat() && !srcDT.IsFloat():
		return func(d []D, a, _ []S, _ args) {
			a = a[:len(d)]
			for i := range d {
				d[i] = D(int64(a[i]))
			}
		}
	}
	return func(d []D, a, _ []S, _ args) {
		a = a[:len(d)]
		for i := range d {
			d[i] = D(float64(a[i]))
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
	staged, ok := any(kernel[float32, float32](func(d, a, _ []float32, _ args) {
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

func stagedFloat32Binary[T tensor.Elem](k any, aConst, bConst bool) (kernel[T, T], bool) {
	kf, ok := k.(func(a, b float64) float64)
	if !ok {
		return nil, false
	}
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
	staged, ok := any(kernel[float32, float32](func(d, x, y []float32, c args) {
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
			widen(xs, xb, aConst, c[0].f)
			widen(ys, yb, bConst, c[1].f)
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
