package linalg

import (
	"fmt"
	"math"
)

// LU holds a packed LU factorization with partial pivoting: P·A = L·U,
// where L is unit lower triangular and U is upper triangular, both stored
// in Packed (L below the diagonal without its unit diagonal, U on and
// above). Piv[k] records the row swapped into position k at step k.
type LU struct {
	N      int
	Packed Dense
	Piv    []int
	// Swaps counts row exchanges (determinant sign: (-1)^Swaps).
	Swaps int
}

// Factor computes the pivoted LU factorization of the square matrix a.
// The input workspace is not modified.
func Factor(a Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d matrix", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := &LU{N: n, Packed: a.Clone(), Piv: make([]int, n)}
	m := lu.Packed
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p := k
		best := math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("%w: zero pivot column %d", ErrSingular, k)
		}
		lu.Piv[k] = p
		if p != k {
			lu.Swaps++
			rowK := m.Data[k*n : k*n+n]
			rowP := m.Data[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
		}
		pivot := m.At(k, k)
		for i := k + 1; i < n; i++ {
			f := m.At(i, k) / pivot
			m.Set(i, k, f)
			if f == 0 {
				continue
			}
			rowI := m.Data[i*n+k+1 : i*n+n]
			rowK := m.Data[k*n+k+1 : k*n+n]
			for j := range rowI {
				rowI[j] -= f * rowK[j]
			}
		}
	}
	return lu, nil
}

// Det returns the determinant of the factored matrix.
func (lu *LU) Det() float64 {
	det := 1.0
	if lu.Swaps%2 == 1 {
		det = -1
	}
	for i := 0; i < lu.N; i++ {
		det *= lu.Packed.At(i, i)
	}
	return det
}

// Solve computes X such that A·X = B for the factored A, overwriting a copy
// of b (which may have any number of right-hand-side columns).
func (lu *LU) Solve(b Dense) (Dense, error) {
	if b.Rows != lu.N {
		return Dense{}, fmt.Errorf("%w: rhs has %d rows, matrix is %d", ErrShape, b.Rows, lu.N)
	}
	n, k := lu.N, b.Cols
	x := b.Clone()
	row := func(i int) []float64 { return x.Data[i*k : i*k+k] }
	// Apply the row exchanges to the right-hand side.
	for i := 0; i < n; i++ {
		if p := lu.Piv[i]; p != i {
			xi, xp := row(i), row(p)
			for j := range xi {
				xi[j], xp[j] = xp[j], xi[j]
			}
		}
	}
	// Forward substitution with unit lower triangular L, then back
	// substitution with U. The explicit float64 conversion of each product
	// keeps it rounded on its own: no platform may fuse it into the
	// subtraction.
	for i := 1; i < n; i++ {
		xi, li := row(i), lu.Packed.Data[i*n:i*n+i]
		for c, f := range li {
			if f == 0 {
				continue
			}
			for j, v := range row(c) {
				xi[j] -= float64(f * v)
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi, ui := row(i), lu.Packed.Data[i*n:i*n+n]
		for c := i + 1; c < n; c++ {
			f := ui[c]
			if f == 0 {
				continue
			}
			for j, v := range row(c) {
				xi[j] -= float64(f * v)
			}
		}
		d := ui[i]
		for j := range xi {
			xi[j] /= d
		}
	}
	return x, nil
}

// Reconstruct multiplies P⁻¹·L·U back into a full matrix, for verification:
// the result should equal the original A.
func (lu *LU) Reconstruct() Dense {
	n := lu.N
	l := Identity(n)
	u := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, lu.Packed.At(i, j))
			} else {
				u.Set(i, j, lu.Packed.At(i, j))
			}
		}
	}
	prod := MatMulDense(l, u)
	// Undo the recorded row swaps in reverse order: A = P⁻¹·(L·U).
	for k := n - 1; k >= 0; k-- {
		if p := lu.Piv[k]; p != k {
			for j := 0; j < n; j++ {
				vk, vp := prod.At(k, j), prod.At(p, j)
				prod.Set(k, j, vp)
				prod.Set(p, j, vk)
			}
		}
	}
	return prod
}
