package tensor

import (
	"math"
	"testing"
)

// iterFloat64s flattens t through the iterator and Get, the oracle for
// Float64Slice's typed fast path.
func iterFloat64s(t Tensor) []float64 {
	out := make([]float64, t.Size())
	it := NewIterator(t.View)
	for i := 0; it.Next(); i++ {
		out[i] = t.Buf.Get(it.Index())
	}
	return out
}

// readViews addresses a 64-element buffer in the layouts a read meets.
var readViews = map[string]View{
	"contiguous": NewView(MustShape(8, 8)),
	"offset":     {Offset: 5, Shape: MustShape(3, 4), Strides: []int{4, 1}},
	"singleton":  {Offset: 7, Shape: MustShape(4, 1, 3), Strides: []int{3, 50, 1}},
	"vector":     {Offset: 60, Shape: MustShape(4), Strides: []int{1}},
	"strided":    {Offset: 1, Shape: MustShape(4, 3), Strides: []int{16, 2}},
	"transposed": NewView(MustShape(8, 8)).Transpose(),
	"broadcast":  {Offset: 2, Shape: MustShape(5, 4), Strides: []int{0, 1}},
	"empty":      {Offset: 64, Shape: MustShape(0, 3), Strides: []int{3, 1}},
}

// readBuffer fills a 64-element buffer of dt with distinct values, with
// fractions where the dtype keeps them.
func readBuffer(dt DType) Buffer {
	b := MustBuffer(dt, 64)
	for i := 0; i < 64; i++ {
		b.Set(i, float64(i*37%101)+0.25*float64(i%4))
	}
	return b
}

func TestFloat64SliceMatchesIterator(t *testing.T) {
	for _, dt := range []DType{Bool, Uint8, Int32, Int64, Float32, Float64} {
		buf := readBuffer(dt)
		for name, v := range readViews {
			if err := v.Validate(buf.Len()); err != nil {
				t.Fatalf("%s view: %v", name, err)
			}
			tt := Tensor{Buf: buf, View: v}
			got, want := tt.Float64Slice(), iterFloat64s(tt)
			if len(got) != len(want) {
				t.Fatalf("%v %s: %d values, want %d", dt, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v %s: element %d = %v, want %v", dt, name, i, got[i], want[i])
				}
			}
		}
	}
}
