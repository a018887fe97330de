package bohrium

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Array is a lazy handle to a byte-code register viewed through a strided
// window. Operations record byte-code; values materialize on Flush (or on
// any data access, which flushes implicitly). Slicing/transposing returns
// aliasing handles, NumPy-style.
//
// Shape-mismatch and use-after-Free are programming errors and panic, the
// way NumPy raises; data access and structural operations that can fail
// for runtime reasons return errors.
// Lifetime semantics: arrays made by Context creation functions (Zeros,
// Arange, FromSlice, ...) are *kept* — their values survive every flush.
// Arrays returned by pure operations (Plus, Power, Inverse, MatMul,
// reductions, ...) are *temporaries*: if a flush happens while a temporary
// has been consumed by other byte-code and never materialized, the
// optimizer may eliminate or rewrite away its value (this is what lets the
// equation (2) inverse→solve rewrite fire on `a.Inverse().MatMul(b)`).
// Call Keep on a temporary you want to read after an unrelated flush;
// reading values (Data, At, Scalar, String) materializes the value for
// that read but does not pin the array — a debug read must not change
// how later batches optimize, fingerprint, or recycle registers.
type Array struct {
	ctx  *Context
	reg  bytecode.RegID
	view tensor.View
	dt   tensor.DType
	// gen snapshots the register's generation at handle creation. Free
	// bumps the context's counter, so every alias of a freed register —
	// not just the handle Free was called on — fails the check() match.
	// That makes use-after-free deterministic even though freed register
	// ids are recycled for later arrays.
	gen   uint64
	freed bool
}

// Keep pins the array's value across flushes: the optimizer treats it as
// externally observed even when other byte-code consumes it.
func (a *Array) Keep() *Array {
	a.check()
	a.ctx.state(a.reg).kept = true
	return a
}

// Shape returns the logical dimensions of the array view.
func (a *Array) Shape() []int { return append([]int(nil), a.view.Shape...) }

// Size returns the number of elements addressed by the view.
func (a *Array) Size() int { return a.view.Size() }

// NDim returns the number of dimensions.
func (a *Array) NDim() int { return a.view.NDim() }

// DType returns the element type.
func (a *Array) DType() tensor.DType { return a.dt }

func (a *Array) operand() bytecode.Operand {
	return bytecode.Reg(a.reg, a.view)
}

func (a *Array) check() {
	if a.freed || a.gen != a.ctx.state(a.reg).gen {
		panic("bohrium: use of freed array")
	}
	if a.ctx.closed {
		panic("bohrium: use of array after context close")
	}
}

func (a *Array) emitIdentityConst(c bytecode.Constant) {
	a.ctx.pending.EmitIdentity(a.operand(), bytecode.Const(c))
}

// constFor converts a Go float to a byte-code constant. Integral values
// record as exact int64 constants — the form the paper's listings print
// ("BH_ADD a0 a0 1") and the form integer constant-merging folds exactly.
func (a *Array) constFor(v float64) bytecode.Constant {
	if v == float64(int64(v)) {
		return bytecode.ConstInt(int64(v))
	}
	return bytecode.ConstFloat(v)
}

// In-place operations (NumPy's a += x family — the paper's Listing 1).

func (a *Array) inPlaceConst(op bytecode.Opcode, v float64) *Array {
	a.check()
	a.ctx.pending.EmitBinary(op, a.operand(), a.operand(), bytecode.Const(a.constFor(v)))
	return a
}

func (a *Array) inPlaceArr(op bytecode.Opcode, b *Array) *Array {
	a.check()
	b.check()
	if !tensor.Shape(b.view.Shape).BroadcastableTo(a.view.Shape) {
		panic(fmt.Sprintf("bohrium: shape %v not broadcastable to %v", b.Shape(), a.Shape()))
	}
	a.ctx.pending.EmitBinary(op, a.operand(), a.operand(), b.operand())
	return a
}

// AddC adds the scalar v to every element in place.
func (a *Array) AddC(v float64) *Array { return a.inPlaceConst(bytecode.OpAdd, v) }

// SubC subtracts the scalar v in place.
func (a *Array) SubC(v float64) *Array { return a.inPlaceConst(bytecode.OpSubtract, v) }

// MulC multiplies by the scalar v in place.
func (a *Array) MulC(v float64) *Array { return a.inPlaceConst(bytecode.OpMultiply, v) }

// DivC divides by the scalar v in place.
func (a *Array) DivC(v float64) *Array { return a.inPlaceConst(bytecode.OpDivide, v) }

// PowC raises every element to the scalar power v in place. Integral v
// records an integer exponent, making the byte-code eligible for the
// power-expansion rewrite (paper eq. (1)).
func (a *Array) PowC(v float64) *Array {
	a.check()
	c := bytecode.ConstFloat(v)
	if v == float64(int64(v)) {
		c = bytecode.ConstInt(int64(v))
	}
	a.ctx.pending.EmitBinary(bytecode.OpPower, a.operand(), a.operand(), bytecode.Const(c))
	return a
}

// Add adds b elementwise in place.
func (a *Array) Add(b *Array) *Array { return a.inPlaceArr(bytecode.OpAdd, b) }

// Sub subtracts b elementwise in place.
func (a *Array) Sub(b *Array) *Array { return a.inPlaceArr(bytecode.OpSubtract, b) }

// Mul multiplies by b elementwise in place.
func (a *Array) Mul(b *Array) *Array { return a.inPlaceArr(bytecode.OpMultiply, b) }

// Div divides by b elementwise in place.
func (a *Array) Div(b *Array) *Array { return a.inPlaceArr(bytecode.OpDivide, b) }

// Maximum takes the elementwise maximum with b in place.
func (a *Array) Maximum(b *Array) *Array { return a.inPlaceArr(bytecode.OpMaximum, b) }

// Minimum takes the elementwise minimum with b in place.
func (a *Array) Minimum(b *Array) *Array { return a.inPlaceArr(bytecode.OpMinimum, b) }

func (a *Array) inPlaceUnary(op bytecode.Opcode) *Array {
	a.check()
	a.ctx.pending.EmitUnary(op, a.operand(), a.operand())
	return a
}

// Neg negates in place.
func (a *Array) Neg() *Array { return a.inPlaceUnary(bytecode.OpNegative) }

// Abs takes absolute values in place.
func (a *Array) Abs() *Array { return a.inPlaceUnary(bytecode.OpAbsolute) }

// Sqrt takes square roots in place.
func (a *Array) Sqrt() *Array { return a.inPlaceUnary(bytecode.OpSqrt) }

// Exp exponentiates in place.
func (a *Array) Exp() *Array { return a.inPlaceUnary(bytecode.OpExp) }

// Log takes natural logarithms in place.
func (a *Array) Log() *Array { return a.inPlaceUnary(bytecode.OpLog) }

// Sin applies sine in place.
func (a *Array) Sin() *Array { return a.inPlaceUnary(bytecode.OpSin) }

// Cos applies cosine in place.
func (a *Array) Cos() *Array { return a.inPlaceUnary(bytecode.OpCos) }

// Tanh applies the hyperbolic tangent in place.
func (a *Array) Tanh() *Array { return a.inPlaceUnary(bytecode.OpTanh) }

// Floor rounds down in place.
func (a *Array) Floor() *Array { return a.inPlaceUnary(bytecode.OpFloor) }

// Pure operations returning new arrays.

func (a *Array) pureBinary(op bytecode.Opcode, b *Array, dt tensor.DType) *Array {
	a.check()
	b.check()
	shape, err := tensor.BroadcastShapes(a.view.Shape, b.view.Shape)
	if err != nil {
		panic(fmt.Sprintf("bohrium: %v", err))
	}
	out := a.ctx.newTempArray(dt, shape)
	a.ctx.pending.EmitBinary(op, out.operand(), a.operand(), b.operand())
	return out
}

func (a *Array) pureBinaryConst(op bytecode.Opcode, v float64, dt tensor.DType) *Array {
	a.check()
	out := a.ctx.newTempArray(dt, a.view.Shape)
	a.ctx.pending.EmitBinary(op, out.operand(), a.operand(), bytecode.Const(a.constFor(v)))
	return out
}

// Plus returns a new array a + b.
func (a *Array) Plus(b *Array) *Array {
	return a.pureBinary(bytecode.OpAdd, b, tensor.Promote(a.dt, b.dt))
}

// Minus returns a new array a - b.
func (a *Array) Minus(b *Array) *Array {
	return a.pureBinary(bytecode.OpSubtract, b, tensor.Promote(a.dt, b.dt))
}

// Times returns a new array a · b (elementwise).
func (a *Array) Times(b *Array) *Array {
	return a.pureBinary(bytecode.OpMultiply, b, tensor.Promote(a.dt, b.dt))
}

// Over returns a new array a / b.
func (a *Array) Over(b *Array) *Array {
	return a.pureBinary(bytecode.OpDivide, b, tensor.Promote(a.dt, b.dt))
}

// PlusC returns a new array a + v.
func (a *Array) PlusC(v float64) *Array { return a.pureBinaryConst(bytecode.OpAdd, v, a.dt) }

// TimesC returns a new array a · v.
func (a *Array) TimesC(v float64) *Array { return a.pureBinaryConst(bytecode.OpMultiply, v, a.dt) }

// Power returns a new array aⁿ. Integral n is expansion-eligible.
func (a *Array) Power(n float64) *Array {
	a.check()
	out := a.ctx.newTempArray(a.dt, a.view.Shape)
	c := bytecode.ConstFloat(n)
	if n == float64(int64(n)) {
		c = bytecode.ConstInt(int64(n))
	}
	a.ctx.pending.EmitBinary(bytecode.OpPower, out.operand(), a.operand(), bytecode.Const(c))
	return out
}

// Assign overwrites this array's elements with b (broadcast as needed) —
// NumPy's a[...] = b, the idiom stencil codes use to write back into a
// view of a larger grid.
func (a *Array) Assign(b *Array) *Array {
	a.check()
	b.check()
	if !tensor.Shape(b.view.Shape).BroadcastableTo(a.view.Shape) {
		panic(fmt.Sprintf("bohrium: shape %v not broadcastable to %v", b.Shape(), a.Shape()))
	}
	a.ctx.pending.EmitIdentity(a.operand(), b.operand())
	return a
}

// ModC takes every element modulo v in place.
func (a *Array) ModC(v float64) *Array { return a.inPlaceConst(bytecode.OpMod, v) }

// Copy returns a new array with the same contents (BH_IDENTITY).
func (a *Array) Copy() *Array {
	a.check()
	out := a.ctx.newTempArray(a.dt, a.view.Shape)
	a.ctx.pending.EmitIdentity(out.operand(), a.operand())
	return out
}

// AsType returns a copy converted to the given dtype (C-cast semantics).
func (a *Array) AsType(dt tensor.DType) *Array {
	a.check()
	out := a.ctx.newTempArray(dt, a.view.Shape)
	a.ctx.pending.EmitIdentity(out.operand(), a.operand())
	return out
}

// Comparisons (results are bool arrays).

// LessC returns the bool array a < v.
func (a *Array) LessC(v float64) *Array {
	return a.pureBinaryConst(bytecode.OpLess, v, tensor.Bool)
}

// GreaterC returns the bool array a > v.
func (a *Array) GreaterC(v float64) *Array {
	return a.pureBinaryConst(bytecode.OpGreater, v, tensor.Bool)
}

// Less returns the bool array a < b.
func (a *Array) Less(b *Array) *Array {
	return a.pureBinary(bytecode.OpLess, b, tensor.Bool)
}

// Reductions.

func (a *Array) reduceAxis(op bytecode.Opcode, axis int) *Array {
	a.check()
	if axis < 0 || axis >= a.NDim() {
		panic(fmt.Sprintf("bohrium: reduce axis %d out of range for %d-d array", axis, a.NDim()))
	}
	outShape := make(tensor.Shape, 0, a.NDim()-1)
	for d, n := range a.view.Shape {
		if d != axis {
			outShape = append(outShape, n)
		}
	}
	dt := a.dt
	if op.ArgReduce() {
		dt = tensor.Int64 // index reductions always produce indices
	}
	out := a.ctx.newTempArray(dt, outShape)
	a.ctx.pending.EmitReduce(op, out.operand(), a.operand(), axis)
	return out
}

// SumAxis reduces one axis with addition.
func (a *Array) SumAxis(axis int) *Array { return a.reduceAxis(bytecode.OpAddReduce, axis) }

// ProdAxis reduces one axis with multiplication.
func (a *Array) ProdAxis(axis int) *Array { return a.reduceAxis(bytecode.OpMultiplyReduce, axis) }

// MaxAxis reduces one axis with maximum.
func (a *Array) MaxAxis(axis int) *Array { return a.reduceAxis(bytecode.OpMaximumReduce, axis) }

// MinAxis reduces one axis with minimum.
func (a *Array) MinAxis(axis int) *Array { return a.reduceAxis(bytecode.OpMinimumReduce, axis) }

// ArgminAxis reduces one axis to the int64 index of its minimum, with
// NumPy semantics: the lowest index wins a tie and the first NaN beats
// every number. The result dtype is always int64, whatever the input.
func (a *Array) ArgminAxis(axis int) *Array { return a.reduceAxis(bytecode.OpArgminReduce, axis) }

// ArgmaxAxis reduces one axis to the int64 index of its maximum; see
// ArgminAxis for the tie and NaN rules.
func (a *Array) ArgmaxAxis(axis int) *Array { return a.reduceAxis(bytecode.OpArgmaxReduce, axis) }

// Argmin returns the index of a 1-D array's minimum as a scalar int64
// array. Flattened argmin of a higher-rank array records no byte-code
// today; reduce per axis instead.
func (a *Array) Argmin() *Array {
	if a.NDim() != 1 {
		panic(fmt.Sprintf("bohrium: Argmin needs a 1-d array, got %d-d (use ArgminAxis)", a.NDim()))
	}
	return a.ArgminAxis(0)
}

// Argmax is Argmin for the maximum.
func (a *Array) Argmax() *Array {
	if a.NDim() != 1 {
		panic(fmt.Sprintf("bohrium: Argmax needs a 1-d array, got %d-d (use ArgmaxAxis)", a.NDim()))
	}
	return a.ArgmaxAxis(0)
}

// Sum reduces all axes to a scalar array.
func (a *Array) Sum() *Array {
	out := a
	for out.NDim() > 0 {
		out = out.SumAxis(0)
	}
	return out
}

// Max reduces all axes to a scalar array with maximum.
func (a *Array) Max() *Array {
	out := a
	for out.NDim() > 0 {
		out = out.MaxAxis(0)
	}
	return out
}

// Mean returns the scalar mean of all elements. The mean of an empty
// array is undefined — like the MIN/MAX empty-axis reductions (and
// unlike Sum, whose empty result is the additive identity 0), there is
// no value to report, so Mean panics instead of silently dividing 0/0
// into NaN. Emptiness is known from the shape at record time, which
// makes it a programming error, the panicking category.
func (a *Array) Mean() *Array {
	n := a.Size()
	if n == 0 {
		panic("bohrium: Mean of an empty array is undefined")
	}
	return a.Sum().DivC(float64(n))
}

// CumSum returns the prefix sums along the given axis.
func (a *Array) CumSum(axis int) *Array {
	a.check()
	out := a.ctx.newTempArray(a.dt, a.view.Shape)
	a.ctx.pending.EmitReduce(bytecode.OpAddAccumulate, out.operand(), a.operand(), axis)
	return out
}

// Views (no byte-code, no copies — aliases the same register).

// Slice restricts dimension dim to [start, stop) with the given step.
// Negative steps give NumPy reversed slices: Slice(dim, n-1, -1, -1)
// reverses a dimension of extent n (see tensor.View.Slice for the exact
// bounds rules).
func (a *Array) Slice(dim, start, stop, step int) (*Array, error) {
	a.check()
	v, err := a.view.Slice(dim, start, stop, step)
	if err != nil {
		return nil, err
	}
	return a.alias(v), nil
}

// MustSlice is Slice that panics on error.
func (a *Array) MustSlice(dim, start, stop, step int) *Array {
	s, err := a.Slice(dim, start, stop, step)
	if err != nil {
		panic(err)
	}
	return s
}

// Transpose returns the axis-reversed alias.
func (a *Array) Transpose() *Array {
	a.check()
	return a.alias(a.view.Transpose())
}

// Reshape returns an alias with a new shape (the view must be contiguous).
func (a *Array) Reshape(dims ...int) (*Array, error) {
	a.check()
	v, err := a.view.Reshape(tensor.MustShape(dims...))
	if err != nil {
		return nil, err
	}
	return a.alias(v), nil
}

func (a *Array) alias(v tensor.View) *Array {
	return &Array{ctx: a.ctx, reg: a.reg, view: v, dt: a.dt, gen: a.gen}
}

// Materialization and data access.

// Sync records a BH_SYNC materialization fence for this array and keeps
// its value across future flushes (fence + Keep). Use fence-only reads
// (Data, At, String) when the value is needed once; Sync when the array
// must stay observable to every later batch.
func (a *Array) Sync() *Array {
	a.check()
	a.ctx.state(a.reg).kept = true
	a.ctx.pending.EmitSync(a.operand())
	return a
}

// fence records a BH_SYNC materialization fence without pinning the
// register. The in-batch SYNC byte-code is what the optimizer's liveness
// respects, so the value is materialized for the flush that follows —
// but the register's cross-batch role is untouched: a read must not make
// a temporary permanently kept (that would change every later batch's
// outputs, and with them the plan-cache fingerprints, and block the
// register id from recycling — the sticky-Sync read leak).
func (a *Array) fence() {
	a.ctx.pending.EmitSync(a.operand())
}

// Data flushes pending byte-code and returns the array contents flattened
// to []float64 in row-major order. The read fences (materializes) the
// value but does not Keep the array. On a closed context Data reports
// ErrClosed — data access is a runtime question, not a programming error,
// so it errors instead of panicking.
func (a *Array) Data() ([]float64, error) {
	if a.ctx.closed {
		return nil, ErrClosed
	}
	a.check()
	a.fence()
	if err := a.ctx.Flush(); err != nil {
		return nil, err
	}
	tt, ok := a.ctx.backend.Tensor(a.reg, a.view)
	if !ok {
		return nil, fmt.Errorf("bohrium: array register %s has no data", a.reg)
	}
	return tt.Float64Slice(), nil
}

// MustData is Data that panics on error, for examples.
func (a *Array) MustData() []float64 {
	d, err := a.Data()
	if err != nil {
		panic(err)
	}
	return d
}

// Scalar flushes and returns the single element of a 0-d or 1-element
// array.
func (a *Array) Scalar() (float64, error) {
	d, err := a.Data()
	if err != nil {
		return 0, err
	}
	if len(d) != 1 {
		return 0, fmt.Errorf("bohrium: Scalar on array of %d elements", len(d))
	}
	return d[0], nil
}

// At flushes and returns one element by coordinates. On a closed context
// it reports ErrClosed.
func (a *Array) At(coords ...int) (float64, error) {
	if a.ctx.closed {
		return 0, ErrClosed
	}
	a.check()
	if len(coords) != a.NDim() {
		return 0, fmt.Errorf("bohrium: %d coordinates for %d-d array", len(coords), a.NDim())
	}
	a.fence()
	if err := a.ctx.Flush(); err != nil {
		return 0, err
	}
	tt, ok := a.ctx.backend.Tensor(a.reg, a.view)
	if !ok {
		return 0, fmt.Errorf("bohrium: array register %s has no data", a.reg)
	}
	return tt.At(coords...), nil
}

// String flushes and renders the array NumPy-style. Render errors are
// reported inline (String cannot fail).
func (a *Array) String() string {
	if a.freed || a.gen != a.ctx.state(a.reg).gen {
		return "<freed array>"
	}
	if a.ctx.closed {
		return fmt.Sprintf("<error: %v>", ErrClosed)
	}
	a.fence()
	if err := a.ctx.Flush(); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	tt, ok := a.ctx.backend.Tensor(a.reg, a.view)
	if !ok {
		return "<unmaterialized array>"
	}
	return tt.String()
}

// Free records a BH_FREE for the register and invalidates this handle.
// Other aliases of the same register become invalid too: the register's
// generation advances, so any later use through a stale alias panics
// instead of silently touching whatever array recycles the id.
func (a *Array) Free() {
	a.check()
	a.ctx.pending.EmitFree(a.operand())
	st := a.ctx.state(a.reg)
	st.kept = false
	st.gen++
	a.freed = true
}
