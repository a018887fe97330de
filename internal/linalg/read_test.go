package linalg

import (
	"math"
	"testing"

	"bohrium/internal/tensor"
)

// fromTensorAt packs t element by element through At, the oracle for
// FromTensor's flattening copy.
func fromTensorAt(t tensor.Tensor) Dense {
	if t.NDim() == 1 {
		d := NewDense(t.Shape()[0], 1)
		for i := 0; i < d.Rows; i++ {
			d.Data[i] = t.At(i)
		}
		return d
	}
	d := NewDense(t.Shape()[0], t.Shape()[1])
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			d.Set(i, j, t.At(i, j))
		}
	}
	return d
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestFromTensorMatchesAt(t *testing.T) {
	views := map[string]tensor.View{
		"contiguous": tensor.NewView(tensor.MustShape(6, 8)),
		"offset":     {Offset: 9, Shape: tensor.MustShape(3, 5), Strides: []int{5, 1}},
		"vector":     {Offset: 3, Shape: tensor.MustShape(7), Strides: []int{1}},
		"strided":    {Offset: 1, Shape: tensor.MustShape(4, 3), Strides: []int{10, 3}},
		"column":     {Offset: 2, Shape: tensor.MustShape(6), Strides: []int{8}},
		"transposed": tensor.NewView(tensor.MustShape(6, 8)).Transpose(),
		"broadcast":  {Offset: 4, Shape: tensor.MustShape(5, 4), Strides: []int{0, 1}},
	}
	for _, dt := range []tensor.DType{tensor.Bool, tensor.Uint8, tensor.Int32, tensor.Int64, tensor.Float32, tensor.Float64} {
		buf := tensor.MustBuffer(dt, 48)
		for i := 0; i < 48; i++ {
			buf.Set(i, float64(i*29%97)+0.5*float64(i%2))
		}
		for name, v := range views {
			tt := tensor.Tensor{Buf: buf, View: v}
			got, err := FromTensor(tt)
			if err != nil {
				t.Fatalf("%v %s: %v", dt, name, err)
			}
			want := fromTensorAt(tt)
			if got.Rows != want.Rows || got.Cols != want.Cols || !sameBits(got.Data, want.Data) {
				t.Fatalf("%v %s: FromTensor = %v, At loop = %v", dt, name, got, want)
			}
		}
	}
}

// solveAtSet is LU.Solve written with At and Set, the oracle for its
// row-slice loops. Each product is converted explicitly, as in Solve, so
// no platform fuses it into the subtraction.
func solveAtSet(lu *LU, b Dense) Dense {
	n, k := lu.N, b.Cols
	x := b.Clone()
	for i := 0; i < n; i++ {
		if p := lu.Piv[i]; p != i {
			for j := 0; j < k; j++ {
				vi, vp := x.At(i, j), x.At(p, j)
				x.Set(i, j, vp)
				x.Set(p, j, vi)
			}
		}
	}
	for i := 1; i < n; i++ {
		for c := 0; c < i; c++ {
			f := lu.Packed.At(i, c)
			if f == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				x.Set(i, j, x.At(i, j)-float64(f*x.At(c, j)))
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		for c := i + 1; c < n; c++ {
			f := lu.Packed.At(i, c)
			if f == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				x.Set(i, j, x.At(i, j)-float64(f*x.At(c, j)))
			}
		}
		d := lu.Packed.At(i, i)
		for j := 0; j < k; j++ {
			x.Set(i, j, x.At(i, j)/d)
		}
	}
	return x
}

func TestLUSolveMatchesAtSetOracle(t *testing.T) {
	r := tensor.NewSplitMix64(42)
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
		for _, k := range []int{1, 3, 8} {
			for trial := 0; trial < 4; trial++ {
				a, b := NewDense(n, n), NewDense(n, k)
				for i := range a.Data {
					if r.Intn(4) != 0 { // leave zeros, so Solve skips some factors
						a.Data[i] = 2*r.Float64() - 1
					}
				}
				for i := 0; i < n; i++ {
					a.Data[i*n+i] += float64(n) * r.Float64() // pivoting still swaps rows
				}
				for i := range b.Data {
					b.Data[i] = 2*r.Float64() - 1
				}
				lu, err := Factor(a)
				if err != nil {
					continue // singular draw
				}
				got, err := lu.Solve(b)
				if err != nil {
					t.Fatal(err)
				}
				if want := solveAtSet(lu, b); !sameBits(got.Data, want.Data) {
					t.Fatalf("n=%d k=%d trial %d: Solve = %v, At/Set loop = %v", n, k, trial, got.Data, want.Data)
				}
			}
		}
	}
}
