// Package tensor implements the dense multi-dimensional array substrate the
// Bohrium byte-code operates on: typed buffers, strided views, broadcasting,
// and n-dimensional iteration.
//
// A Tensor is a (Buffer, View) pair. Several tensors may share one buffer
// through different views, exactly like NumPy ndarrays sharing memory — this
// aliasing is what the rewrite engine's interference analysis reasons about.
package tensor

import "fmt"

// DType identifies the element type stored in a buffer.
type DType int

// Supported element types. The set mirrors the dtypes Bohrium's byte-code
// carries for scientific workloads (imaging uses uint8, index math uses
// int32/int64, numerics use float32/float64, masks use bool).
const (
	Bool DType = iota + 1
	Uint8
	Int32
	Int64
	Float32
	Float64
)

var dtypeNames = map[DType]string{
	Bool:    "bool",
	Uint8:   "uint8",
	Int32:   "int32",
	Int64:   "int64",
	Float32: "float32",
	Float64: "float64",
}

// String returns the lower-case NumPy-style name of the dtype.
func (d DType) String() string {
	if s, ok := dtypeNames[d]; ok {
		return s
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// Valid reports whether d is one of the defined dtypes.
func (d DType) Valid() bool { return d >= Bool && d <= Float64 }

// IsFloat reports whether d is a floating-point dtype.
func (d DType) IsFloat() bool { return d == Float32 || d == Float64 }

// IsInteger reports whether d is an integer dtype (bool excluded).
func (d DType) IsInteger() bool { return d == Uint8 || d == Int32 || d == Int64 }

// Size returns the size of one element in bytes.
func (d DType) Size() int {
	switch d {
	case Bool, Uint8:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		return 0
	}
}

// ParseDType converts a NumPy-style dtype name into a DType.
func ParseDType(s string) (DType, error) {
	for d, name := range dtypeNames {
		if name == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("tensor: unknown dtype %q", s)
}

// Promote returns the dtype that the result of a binary arithmetic operation
// between a and b should have, following NumPy's promotion lattice restricted
// to our dtype set: bool < uint8 < int32 < int64 < float32 < float64.
func Promote(a, b DType) DType {
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

func rank(d DType) int {
	switch d {
	case Bool:
		return 1
	case Uint8:
		return 2
	case Int32:
		return 3
	case Int64:
		return 4
	case Float32:
		return 5
	case Float64:
		return 6
	default:
		return 0
	}
}
