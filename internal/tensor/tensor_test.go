package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDTypeBasics(t *testing.T) {
	tests := []struct {
		dt      DType
		name    string
		size    int
		isFloat bool
		isInt   bool
	}{
		{Bool, "bool", 1, false, false},
		{Uint8, "uint8", 1, false, true},
		{Int32, "int32", 4, false, true},
		{Int64, "int64", 8, false, true},
		{Float32, "float32", 4, true, false},
		{Float64, "float64", 8, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.dt.String(); got != tt.name {
				t.Errorf("String = %q, want %q", got, tt.name)
			}
			if got := tt.dt.Size(); got != tt.size {
				t.Errorf("Size = %d, want %d", got, tt.size)
			}
			if got := tt.dt.IsFloat(); got != tt.isFloat {
				t.Errorf("IsFloat = %v", got)
			}
			if got := tt.dt.IsInteger(); got != tt.isInt {
				t.Errorf("IsInteger = %v", got)
			}
			parsed, err := ParseDType(tt.name)
			if err != nil || parsed != tt.dt {
				t.Errorf("ParseDType(%q) = %v, %v", tt.name, parsed, err)
			}
		})
	}
	if _, err := ParseDType("complex128"); err == nil {
		t.Error("ParseDType accepted unknown dtype")
	}
	if DType(0).Valid() {
		t.Error("zero DType is valid")
	}
}

func TestPromote(t *testing.T) {
	tests := []struct {
		a, b, want DType
	}{
		{Bool, Float64, Float64},
		{Int32, Int64, Int64},
		{Int64, Float32, Float32},
		{Uint8, Bool, Uint8},
		{Float32, Float64, Float64},
		{Int64, Int64, Int64},
	}
	for _, tt := range tests {
		if got := Promote(tt.a, tt.b); got != tt.want {
			t.Errorf("Promote(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := Promote(tt.b, tt.a); got != tt.want {
			t.Errorf("Promote(%v, %v) = %v, want %v", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestBufferRoundTrip(t *testing.T) {
	for _, dt := range []DType{Bool, Uint8, Int32, Int64, Float32, Float64} {
		t.Run(dt.String(), func(t *testing.T) {
			b := MustBuffer(dt, 4)
			b.Set(0, 1)
			b.Set(1, 0)
			b.SetInt(2, 1)
			if got := b.Get(0); got != 1 {
				t.Errorf("Get(0) = %v, want 1", got)
			}
			if got := b.Get(1); got != 0 {
				t.Errorf("Get(1) = %v, want 0", got)
			}
			if got := b.GetInt(2); got != 1 {
				t.Errorf("GetInt(2) = %v, want 1", got)
			}
			clone := b.Clone()
			clone.Set(0, 0)
			if b.Get(0) != 1 {
				t.Error("Clone shares storage with original")
			}
		})
	}
}

func TestBufferTruncation(t *testing.T) {
	b := MustBuffer(Int64, 1)
	b.Set(0, 3.9)
	if got := b.GetInt(0); got != 3 {
		t.Errorf("int64 Set(3.9) = %d, want 3 (C-cast truncation)", got)
	}
	bb := MustBuffer(Bool, 1)
	bb.Set(0, 7)
	if got := bb.Get(0); got != 1 {
		t.Errorf("bool Set(7) = %v, want 1", got)
	}
	bb.SetInt(0, -3)
	if got := bb.GetInt(0); got != 1 {
		t.Errorf("bool SetInt(-3) = %v, want 1", got)
	}
}

func TestBufferErrors(t *testing.T) {
	if _, err := NewBuffer(Float64, -1); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := NewBuffer(DType(99), 4); err == nil {
		t.Error("invalid dtype accepted")
	}
}

func TestTypedSliceAccessors(t *testing.T) {
	f64 := MustBuffer(Float64, 3)
	if s, ok := Float64s(f64); !ok || len(s) != 3 {
		t.Error("Float64s failed on float64 buffer")
	}
	if _, ok := Float64s(MustBuffer(Int64, 3)); ok {
		t.Error("Float64s succeeded on int64 buffer")
	}
	if s, ok := RawSlice[int64](MustBuffer(Int64, 2)); !ok || len(s) != 2 {
		t.Error("RawSlice[int64] failed")
	}
	if s, ok := RawSlice[int32](MustBuffer(Int32, 2)); !ok || len(s) != 2 {
		t.Error("RawSlice[int32] failed")
	}
	if s, ok := RawSlice[float32](MustBuffer(Float32, 2)); !ok || len(s) != 2 {
		t.Error("RawSlice[float32] failed")
	}
	if s, ok := RawSlice[uint8](MustBuffer(Bool, 2)); !ok || len(s) != 2 {
		t.Error("RawSlice[uint8] failed on bool buffer")
	}
	if _, ok := RawSlice[float32](MustBuffer(Float64, 2)); ok {
		t.Error("RawSlice[float32] succeeded on float64 buffer")
	}
}

func TestTensorFillAndAt(t *testing.T) {
	a := MustNew(Float64, MustShape(3, 4))
	a.Fill(2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if got := a.At(i, j); got != 2.5 {
				t.Fatalf("At(%d,%d) = %v, want 2.5", i, j, got)
			}
		}
	}
	a.SetAt(9, 1, 2)
	if got := a.At(1, 2); got != 9 {
		t.Errorf("SetAt/At = %v, want 9", got)
	}
}

func TestTensorSliceAliases(t *testing.T) {
	a := MustNew(Float64, MustShape(10))
	half, err := a.Slice(0, 5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	half.Fill(1)
	want := []float64{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	got := a.Float64Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after slice fill, a = %v, want %v", got, want)
		}
	}
}

func TestTensorTransposeAt(t *testing.T) {
	a := MustNew(Float64, MustShape(2, 3))
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.SetAt(v, i, j)
			v++
		}
	}
	tr := a.Transpose()
	if !tr.Shape().Equal(MustShape(3, 2)) {
		t.Fatalf("transpose shape = %v", tr.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTensorCompactEqualsOriginal(t *testing.T) {
	a := MustNew(Float64, MustShape(4, 4))
	a.FillRandom(42, -1, 1)
	tr := a.Transpose()
	c := tr.Compact()
	if !c.Equal(tr) {
		t.Error("Compact() differs from source view")
	}
	if !c.View.Contiguous() {
		t.Error("Compact() is not contiguous")
	}
	// Mutating the compact copy must not touch the original.
	c.Fill(0)
	if a.At(1, 1) == 0 && a.At(2, 2) == 0 {
		t.Error("Compact() aliases original buffer")
	}
}

func TestAllClose(t *testing.T) {
	a, _ := FromFloat64s([]float64{1, 2, 3}, MustShape(3))
	b, _ := FromFloat64s([]float64{1, 2, 3.0000001}, MustShape(3))
	if !a.AllClose(b, 1e-5, 1e-8) {
		t.Error("AllClose too strict")
	}
	c, _ := FromFloat64s([]float64{1, 2, 4}, MustShape(3))
	if a.AllClose(c, 1e-5, 1e-8) {
		t.Error("AllClose too loose")
	}
	n1, _ := FromFloat64s([]float64{math.NaN()}, MustShape(1))
	n2, _ := FromFloat64s([]float64{math.NaN()}, MustShape(1))
	if !n1.AllClose(n2, 0, 0) {
		t.Error("NaN should compare close to NaN")
	}
	if n1.Equal(n2) {
		t.Error("NaN should not compare Equal")
	}
	d, _ := FromFloat64s([]float64{1, 2}, MustShape(2))
	if a.AllClose(d, 1, 1) {
		t.Error("shape mismatch should not be close")
	}
}

func TestIteratorOrder(t *testing.T) {
	v := NewView(MustShape(2, 3))
	it := NewIterator(v)
	var got []int
	for it.Next() {
		got = append(got, it.Index())
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("iterator yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterator yielded %v, want %v", got, want)
		}
	}
}

func TestIteratorStrided(t *testing.T) {
	v := mustStridedRaw(1, MustShape(3), []int{2})
	it := NewIterator(v)
	var got []int
	for it.Next() {
		got = append(got, it.Index())
	}
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strided iterator yielded %v, want %v", got, want)
		}
	}
}

func TestIteratorTransposedOrder(t *testing.T) {
	v := NewView(MustShape(2, 3)).Transpose() // shape (3,2), strides (1,3)
	it := NewIterator(v)
	var got []int
	for it.Next() {
		got = append(got, it.Index())
	}
	want := []int{0, 3, 1, 4, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transposed iterator yielded %v, want %v", got, want)
		}
	}
}

func TestIteratorScalarAndEmpty(t *testing.T) {
	scalar := NewIterator(NewView(MustShape()))
	count := 0
	for scalar.Next() {
		count++
	}
	if count != 1 {
		t.Errorf("scalar view yielded %d elements, want 1", count)
	}
	empty := NewIterator(NewView(MustShape(0, 5)))
	for empty.Next() {
		t.Fatal("empty view yielded an element")
	}
}

func TestIteratorCountMatchesSize(t *testing.T) {
	f := func(r1, r2, r3 uint8) bool {
		shape := MustShape(int(r1%5), int(r2%4)+1, int(r3%3)+1)
		it := NewIterator(NewView(shape))
		n := 0
		for it.Next() {
			n++
		}
		return n == shape.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitMixDeterministic(t *testing.T) {
	a := NewSplitMix64(7)
	b := NewSplitMix64(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewSplitMix64(1).Uint64() == NewSplitMix64(2).Uint64() {
		t.Error("different seeds collided on first draw")
	}
	// Counter-based access matches sequential access.
	seq := NewSplitMix64(99)
	for i := uint64(1); i <= 10; i++ {
		if got, want := At(99, i), seq.Uint64(); got != want {
			t.Fatalf("At(99, %d) = %d, want %d", i, got, want)
		}
	}
}

func TestFillRandomRange(t *testing.T) {
	a := MustNew(Float64, MustShape(1000))
	a.FillRandom(3, 2, 5)
	for i, v := range a.Float64Slice() {
		if v < 2 || v >= 5 {
			t.Fatalf("element %d = %v outside [2, 5)", i, v)
		}
	}
	b := MustNew(Float64, MustShape(1000))
	b.FillRandom(3, 2, 5)
	if !a.Equal(b) {
		t.Error("same seed produced different tensors")
	}
}

func TestFormat(t *testing.T) {
	a, _ := FromFloat64s([]float64{1, 2, 3, 4, 5, 6}, MustShape(2, 3))
	got := a.String()
	want := "[[1 2 3]\n [4 5 6]]"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	big := MustNew(Int64, MustShape(20))
	big.Fill(7)
	s := big.Format(FormatOptions{MaxPerDim: 3, Precision: 6})
	if s != "[7 7 7 ... (17 more)]" {
		t.Errorf("truncated format = %q", s)
	}
	bl := MustNew(Bool, MustShape(2))
	bl.SetAt(1, 0)
	if got := bl.String(); got != "[true false]" {
		t.Errorf("bool format = %q", got)
	}
}

func TestFromFloat64sSizeMismatch(t *testing.T) {
	if _, err := FromFloat64s([]float64{1, 2}, MustShape(3)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestTensorValidate(t *testing.T) {
	good := MustNew(Float64, MustShape(4))
	if err := good.Validate(); err != nil {
		t.Errorf("valid tensor rejected: %v", err)
	}
	bad := Tensor{Buf: MustBuffer(Float64, 2), View: NewView(MustShape(4))}
	if err := bad.Validate(); err == nil {
		t.Error("oversized view accepted")
	}
	if err := (Tensor{}).Validate(); err == nil {
		t.Error("nil buffer accepted")
	}
}
