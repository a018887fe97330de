package tensor

import "fmt"

// Buffer is a linear, typed storage area. Views address into buffers; the
// VM's register file maps byte-code registers to buffers.
//
// The float64 Get/Set accessors define the *numeric* behaviour of every
// dtype (bool reads as 0/1, integer writes truncate toward zero, exactly as
// a C cast / NumPy astype would). Hot kernels bypass them through the typed
// slice accessors below.
type Buffer interface {
	// DType returns the element type stored in the buffer.
	DType() DType
	// Len returns the number of elements.
	Len() int
	// Get reads element i widened to float64.
	Get(i int) float64
	// Set writes element i, converting from float64 with C-cast semantics.
	Set(i int, v float64)
	// GetInt reads element i widened to int64 (floats truncate).
	GetInt(i int) int64
	// SetInt writes element i from an int64.
	SetInt(i int, v int64)
	// Clone returns an independent deep copy.
	Clone() Buffer
	// Zero resets every element to the dtype's zero value. The VM's
	// register pool calls it when recycling a buffer, so a reused register
	// starts from the same state a fresh allocation would.
	Zero()
}

// Elem is the set of Go types that back a Buffer. Bool buffers are stored
// as uint8 with values 0 or 1.
type Elem interface {
	~uint8 | ~int32 | ~int64 | ~float32 | ~float64
}

// Data is the concrete Buffer implementation for element type T.
type Data[T Elem] struct {
	dt DType
	s  []T
}

var (
	_ Buffer = (*Data[uint8])(nil)
	_ Buffer = (*Data[float64])(nil)
)

// NewBuffer allocates a zeroed buffer of n elements of the given dtype.
func NewBuffer(dt DType, n int) (Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("tensor: negative buffer length %d", n)
	}
	switch dt {
	case Bool, Uint8:
		return &Data[uint8]{dt: dt, s: make([]uint8, n)}, nil
	case Int32:
		return &Data[int32]{dt: dt, s: make([]int32, n)}, nil
	case Int64:
		return &Data[int64]{dt: dt, s: make([]int64, n)}, nil
	case Float32:
		return &Data[float32]{dt: dt, s: make([]float32, n)}, nil
	case Float64:
		return &Data[float64]{dt: dt, s: make([]float64, n)}, nil
	default:
		return nil, fmt.Errorf("tensor: cannot allocate buffer of invalid dtype %v", dt)
	}
}

// MustBuffer is NewBuffer for known-good arguments; it panics on error.
func MustBuffer(dt DType, n int) Buffer {
	b, err := NewBuffer(dt, n)
	if err != nil {
		panic(err)
	}
	return b
}

// DType implements Buffer.
func (d *Data[T]) DType() DType { return d.dt }

// Len implements Buffer.
func (d *Data[T]) Len() int { return len(d.s) }

// Get implements Buffer.
func (d *Data[T]) Get(i int) float64 { return float64(d.s[i]) }

// Set implements Buffer.
func (d *Data[T]) Set(i int, v float64) {
	if d.dt == Bool {
		if v != 0 {
			d.s[i] = 1
		} else {
			d.s[i] = 0
		}
		return
	}
	d.s[i] = T(v)
}

// GetInt implements Buffer.
func (d *Data[T]) GetInt(i int) int64 { return int64(d.s[i]) }

// SetInt implements Buffer.
func (d *Data[T]) SetInt(i int, v int64) {
	if d.dt == Bool {
		if v != 0 {
			d.s[i] = 1
		} else {
			d.s[i] = 0
		}
		return
	}
	d.s[i] = T(v)
}

// Clone implements Buffer.
func (d *Data[T]) Clone() Buffer {
	return &Data[T]{dt: d.dt, s: append([]T(nil), d.s...)}
}

// Zero implements Buffer.
func (d *Data[T]) Zero() { clear(d.s) }

// RawSlice returns the raw []T backing b, if T is b's storage type: bool
// and uint8 buffers surface as []uint8, every other dtype as its Go type.
// Kernels use it for type-specialized fast paths; callers must not
// resize the slice.
func RawSlice[T Elem](b Buffer) ([]T, bool) {
	d, ok := b.(*Data[T])
	if !ok {
		return nil, false
	}
	return d.s, true
}

// Float64s returns the raw []float64 backing b, if it has dtype float64.
func Float64s(b Buffer) ([]float64, bool) {
	d, ok := b.(*Data[float64])
	if !ok {
		return nil, false
	}
	return d.s, true
}
