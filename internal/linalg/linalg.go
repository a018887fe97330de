// Package linalg is the dense linear-algebra substrate behind the byte-code
// extension methods BH_MATMUL, BH_LU, BH_SOLVE, and BH_INVERSE — the
// operations the paper's equation (2) rewrite needs ("instead one could do
// a LU-factorization of the same problem, which would usually be faster").
//
// Algorithms operate on packed row-major float64 workspaces extracted from
// (possibly strided) tensor views, the way a LAPACK-backed runtime would
// repack before calling dgetrf/dgetrs. All routines are deterministic.
package linalg

import (
	"errors"
	"fmt"

	"bohrium/internal/tensor"
)

// ErrSingular is returned when a matrix has no usable pivot (exact zero
// column below the diagonal) during factorization.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrShape is returned for dimension mismatches.
var ErrShape = errors.New("linalg: shape mismatch")

// Dense is a packed row-major matrix workspace.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed rows×cols workspace.
func NewDense(rows, cols int) Dense {
	return Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set writes element (i, j).
func (d Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Clone returns an independent copy.
func (d Dense) Clone() Dense {
	return Dense{Rows: d.Rows, Cols: d.Cols, Data: append([]float64(nil), d.Data...)}
}

// FromTensor packs a 1-d or 2-d tensor view into a Dense workspace
// (vectors become single-column matrices). Dense is row-major, so the
// view's row-major flattening is the workspace: a contiguous view is one
// copy.
func FromTensor(t tensor.Tensor) (Dense, error) {
	switch t.NDim() {
	case 1:
		return Dense{Rows: t.Shape()[0], Cols: 1, Data: t.Float64Slice()}, nil
	case 2:
		return Dense{Rows: t.Shape()[0], Cols: t.Shape()[1], Data: t.Float64Slice()}, nil
	default:
		return Dense{}, fmt.Errorf("%w: want 1-d or 2-d tensor, got %d-d", ErrShape, t.NDim())
	}
}

// ToTensor unpacks the workspace into a tensor view of matching shape
// ((rows,) for single-column targets of rank 1, (rows, cols) otherwise).
func (d Dense) ToTensor(dst tensor.Tensor) error {
	switch {
	case dst.NDim() == 1 && d.Cols == 1 && dst.Shape()[0] == d.Rows:
		for i := 0; i < d.Rows; i++ {
			dst.SetAt(d.Data[i], i)
		}
		return nil
	case dst.NDim() == 2 && dst.Shape()[0] == d.Rows && dst.Shape()[1] == d.Cols:
		for i := 0; i < d.Rows; i++ {
			for j := 0; j < d.Cols; j++ {
				dst.SetAt(d.At(i, j), i, j)
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: cannot unpack %dx%d into tensor %v", ErrShape, d.Rows, d.Cols, dst.Shape())
	}
}

// Identity returns the n×n identity workspace.
func Identity(n int) Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1)
	}
	return d
}
