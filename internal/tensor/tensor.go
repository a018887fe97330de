package tensor

import (
	"fmt"
	"math"
)

// Tensor is a typed buffer addressed through a strided view. Tensors are
// cheap value types: copying a Tensor aliases the same buffer.
type Tensor struct {
	Buf  Buffer
	View View
}

// New allocates a zeroed tensor of the given dtype and shape with a
// contiguous row-major layout.
func New(dt DType, shape Shape) (Tensor, error) {
	buf, err := NewBuffer(dt, shape.Size())
	if err != nil {
		return Tensor{}, err
	}
	return Tensor{Buf: buf, View: NewView(shape)}, nil
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(dt DType, shape Shape) Tensor {
	t, err := New(dt, shape)
	if err != nil {
		panic(err)
	}
	return t
}

// FromFloat64s builds a float64 tensor of the given shape from values.
func FromFloat64s(values []float64, shape Shape) (Tensor, error) {
	if len(values) != shape.Size() {
		return Tensor{}, fmt.Errorf("tensor: %d values for shape %v (size %d)",
			len(values), shape, shape.Size())
	}
	t := MustNew(Float64, shape)
	raw, _ := Float64s(t.Buf)
	copy(raw, values)
	return t, nil
}

// DType returns the element type.
func (t Tensor) DType() DType { return t.Buf.DType() }

// Shape returns the logical shape of the tensor's view.
func (t Tensor) Shape() Shape { return t.View.Shape }

// Size returns the number of elements addressed by the view.
func (t Tensor) Size() int { return t.View.Size() }

// NDim returns the number of dimensions.
func (t Tensor) NDim() int { return t.View.NDim() }

// Validate checks that the view fits inside the buffer.
func (t Tensor) Validate() error {
	if t.Buf == nil {
		return fmt.Errorf("tensor: nil buffer")
	}
	return t.View.Validate(t.Buf.Len())
}

// At reads the element at the given coordinates, widened to float64.
func (t Tensor) At(coords ...int) float64 {
	return t.Buf.Get(t.View.Index(coords))
}

// SetAt writes the element at the given coordinates.
func (t Tensor) SetAt(v float64, coords ...int) {
	t.Buf.Set(t.View.Index(coords), v)
}

// Fill sets every element addressed by the view to v.
func (t Tensor) Fill(v float64) {
	it := NewIterator(t.View)
	for it.Next() {
		t.Buf.Set(it.Index(), v)
	}
}

// Slice returns a tensor restricted along dim to [start, stop) with step.
// The result aliases the same buffer.
func (t Tensor) Slice(dim, start, stop, step int) (Tensor, error) {
	v, err := t.View.Slice(dim, start, stop, step)
	if err != nil {
		return Tensor{}, err
	}
	return Tensor{Buf: t.Buf, View: v}, nil
}

// Transpose returns the dimension-reversed alias of t.
func (t Tensor) Transpose() Tensor {
	return Tensor{Buf: t.Buf, View: t.View.Transpose()}
}

// Reshape returns an alias of t with a new shape; t must be contiguous.
func (t Tensor) Reshape(shape Shape) (Tensor, error) {
	v, err := t.View.Reshape(shape)
	if err != nil {
		return Tensor{}, err
	}
	return Tensor{Buf: t.Buf, View: v}, nil
}

// Compact returns a freshly allocated contiguous tensor with the same
// logical contents as t (a deep copy in row-major order).
func (t Tensor) Compact() Tensor {
	out := MustNew(t.DType(), t.Shape())
	it := NewIterator(t.View)
	i := 0
	for it.Next() {
		out.Buf.Set(i, t.Buf.Get(it.Index()))
		i++
	}
	return out
}

// Float64Slice flattens the view into a new []float64 in row-major order.
// A contiguous view is copied or widened in one typed loop; strided and
// broadcast views walk an iterator.
func (t Tensor) Float64Slice() []float64 {
	out := make([]float64, t.Size())
	if len(out) > 0 && t.View.Contiguous() && widenFlat(out, t.Buf, t.View.Offset) {
		return out
	}
	it := NewIterator(t.View)
	i := 0
	for it.Next() {
		out[i] = t.Buf.Get(it.Index())
		i++
	}
	return out
}

// widenFlat fills dst with the len(dst) elements of b from off on,
// converted as Get converts them. It reports false for a Buffer
// implementation it does not know.
func widenFlat(dst []float64, b Buffer, off int) bool {
	switch d := b.(type) {
	case *Data[float64]:
		copy(dst, d.s[off:off+len(dst)])
	case *Data[float32]:
		widen(dst, d.s[off:off+len(dst)])
	case *Data[int64]:
		widen(dst, d.s[off:off+len(dst)])
	case *Data[int32]:
		widen(dst, d.s[off:off+len(dst)])
	case *Data[uint8]:
		widen(dst, d.s[off:off+len(dst)])
	default:
		return false
	}
	return true
}

func widen[T Elem](dst []float64, src []T) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// Equal reports whether t and u have the same shape and bitwise-equal
// numeric values (NaN != NaN, as in floating-point comparison).
func (t Tensor) Equal(u Tensor) bool {
	if !t.Shape().Equal(u.Shape()) {
		return false
	}
	it, iu := NewIterator(t.View), NewIterator(u.View)
	for it.Next() && iu.Next() {
		if t.Buf.Get(it.Index()) != u.Buf.Get(iu.Index()) {
			return false
		}
	}
	return true
}

// AllClose reports whether t and u have the same shape and elementwise
// |a-b| <= atol + rtol*|b|, with NaNs considered equal to NaNs. It is the
// standard tolerance check for comparing optimized vs reference runs.
func (t Tensor) AllClose(u Tensor, rtol, atol float64) bool {
	if !t.Shape().Equal(u.Shape()) {
		return false
	}
	it, iu := NewIterator(t.View), NewIterator(u.View)
	for it.Next() && iu.Next() {
		a := t.Buf.Get(it.Index())
		b := u.Buf.Get(iu.Index())
		if math.IsNaN(a) && math.IsNaN(b) {
			continue
		}
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference between t
// and u, for diagnostics in tests and experiment reports.
func (t Tensor) MaxAbsDiff(u Tensor) float64 {
	worst := 0.0
	it, iu := NewIterator(t.View), NewIterator(u.View)
	for it.Next() && iu.Next() {
		d := math.Abs(t.Buf.Get(it.Index()) - u.Buf.Get(iu.Index()))
		if d > worst {
			worst = d
		}
	}
	return worst
}
