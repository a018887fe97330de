package vm

import (
	"math"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// binKey is the loopKey of a binary op over an array and an array or, when
// bConst, a constant.
func binKey(dt tensor.DType, op bytecode.Opcode, bConst bool) loopKey {
	return loopKey{dt: dt, op: op, arity: 2, bConst: bConst}
}

// constArg passes c as a kernel's second, constant input.
func constArg(c bytecode.Constant) args { return args{1: {c.Float(), c.Int()}} }

// The specialized kernels claim bit-for-bit equality with the generic
// class-widened bodies they shadow. These suites check every claim
// kernel by kernel against the reference formula, over inputs chosen to
// stress the edges: subnormals, infinities, NaN, negative zero, and
// values that overflow the narrow integer widths.

func specF32Inputs() ([]float32, []float32) {
	xs := []float32{
		0, 1, -1, 0.5, -0.5, 1e-30, -1e-30, 1e30, -1e30,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 3.1415927, 2.7182817,
	}
	// Deterministic pseudo-random magnitudes across the exponent range.
	r := uint32(0x9e3779b9)
	for len(xs) < 1000 {
		r = r*1664525 + 1013904223
		xs = append(xs, float32(math.Ldexp(float64(int32(r))/float64(1<<31), int(r%64)-32)))
	}
	ys := make([]float32, len(xs))
	for i := range ys {
		ys[i] = xs[(i*7+3)%len(xs)]
	}
	return xs, ys
}

func TestSpecFloat32ArrArrBitExact(t *testing.T) {
	xs, ys := specF32Inputs()
	ops := []struct {
		op bytecode.Opcode
		k  func(a, b float64) float64
	}{
		{bytecode.OpAdd, func(a, b float64) float64 { return a + b }},
		{bytecode.OpSubtract, func(a, b float64) float64 { return a - b }},
		{bytecode.OpMultiply, func(a, b float64) float64 { return a * b }},
		{bytecode.OpDivide, func(a, b float64) float64 { return a / b }},
	}
	for _, tc := range ops {
		dst := make([]float32, len(xs))
		k, ok := specializedBinary[float32](binKey(tensor.Float32, tc.op, false))
		if !ok {
			t.Fatalf("%s: specialized float32 arr-arr kernel missing", tc.op)
		}
		k(dst, xs, ys, args{})
		for i := range xs {
			want := float32(tc.k(float64(xs[i]), float64(ys[i])))
			if math.Float32bits(dst[i]) != math.Float32bits(want) && !(math.IsNaN(float64(dst[i])) && math.IsNaN(float64(want))) {
				t.Fatalf("%s[%d]: spec %x, reference %x (x=%v y=%v)",
					tc.op, i, math.Float32bits(dst[i]), math.Float32bits(want), xs[i], ys[i])
			}
		}
	}
}

// TestSpecFloat32ConstGate: one float32 x ⊗ c kernel picks its body per
// call — native when c is exactly a float32, widened otherwise (0.1, NaN)
// — and matches the double-rounding reference bitwise for each, while the
// native body alone would not for 0.1.
func TestSpecFloat32ConstGate(t *testing.T) {
	xs, _ := specF32Inputs()
	dst := make([]float32, len(xs))
	for _, op := range []bytecode.Opcode{bytecode.OpAdd, bytecode.OpMultiply} {
		k, ok := specializedBinary[float32](binKey(tensor.Float32, op, true))
		if !ok {
			t.Fatalf("%s: float32 constant kernel missing", op)
		}
		ref, _ := floatBinaryKernel(op)
		for _, c := range []float64{1.5, 0.1, math.NaN(), 0.5} {
			k(dst, xs, nil, constArg(bytecode.ConstFloat(c)))
			for i := range xs {
				if want := float32(ref(float64(xs[i]), c)); !sameF32(dst[i], want) {
					t.Fatalf("%s %v [%d]: kernel %x, reference %x", op, c, i, math.Float32bits(dst[i]), math.Float32bits(want))
				}
			}
		}
	}
	native, _ := nativeBinary[float32](bytecode.OpAdd, true)
	native(dst, xs, nil, constArg(bytecode.ConstFloat(0.1)))
	differs := false
	for i := range xs {
		differs = differs || !sameF32(dst[i], float32(float64(xs[i])+0.1))
	}
	if !differs {
		t.Error("native float32 + 0.1 matches the reference everywhere: the gate is not exercised")
	}
}

func TestSpecFloat64BitExact(t *testing.T) {
	xs := make([]float64, 1003)
	for i := range xs {
		xs[i] = math.Ldexp(float64(i*2654435761%4999)-2500, i%40-20)
	}
	xs[17] = math.Inf(1)
	xs[18] = math.NaN()
	xs[19] = math.Copysign(0, -1)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = xs[(i*13+5)%len(xs)]
	}
	ops := []struct {
		op bytecode.Opcode
		k  func(a, b float64) float64
	}{
		{bytecode.OpAdd, func(a, b float64) float64 { return a + b }},
		{bytecode.OpSubtract, func(a, b float64) float64 { return a - b }},
		{bytecode.OpMultiply, func(a, b float64) float64 { return a * b }},
	}
	for _, tc := range ops {
		dst := make([]float64, len(xs))
		k, ok := specializedBinary[float64](binKey(tensor.Float64, tc.op, false))
		if !ok {
			t.Fatalf("%s: native float64 kernel missing", tc.op)
		}
		k(dst, xs, ys, args{})
		for i := range xs {
			want := tc.k(xs[i], ys[i])
			if math.Float64bits(dst[i]) != math.Float64bits(want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Fatalf("%s[%d]: spec %x, reference %x", tc.op, i, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
		// Constant form too.
		c := 1.0 / 3.0
		dstC := make([]float64, len(xs))
		kC, ok := specializedBinary[float64](binKey(tensor.Float64, tc.op, true))
		if !ok {
			t.Fatalf("%s: native float64 const kernel missing", tc.op)
		}
		kC(dstC, xs, nil, constArg(bytecode.ConstFloat(c)))
		for i := range xs {
			want := tc.k(xs[i], c)
			if math.Float64bits(dstC[i]) != math.Float64bits(want) && !(math.IsNaN(dstC[i]) && math.IsNaN(want)) {
				t.Fatalf("%s-const[%d]: spec %x, reference %x", tc.op, i, math.Float64bits(dstC[i]), math.Float64bits(want))
			}
		}
	}
}

func TestSpecIntWrapExact(t *testing.T) {
	xs32 := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30), 123456789, -987654321}
	ys32 := []int32{1, -1, math.MaxInt32, math.MinInt32, 3, 1 << 20, 7, -13, 2}
	ops := []struct {
		op bytecode.Opcode
		k  func(a, b int64) int64
	}{
		{bytecode.OpAdd, func(a, b int64) int64 { return a + b }},
		{bytecode.OpSubtract, func(a, b int64) int64 { return a - b }},
		{bytecode.OpMultiply, func(a, b int64) int64 { return a * b }},
	}
	for _, tc := range ops {
		dst := make([]int32, len(xs32))
		k, ok := specializedBinary[int32](binKey(tensor.Int32, tc.op, false))
		if !ok {
			t.Fatalf("%s: specialized int32 kernel missing", tc.op)
		}
		k(dst, xs32, ys32, args{})
		for i := range xs32 {
			// Reference: the generic body's widen-compute-truncate.
			want := int32(tc.k(int64(xs32[i]), int64(ys32[i])))
			if dst[i] != want {
				t.Fatalf("%s int32[%d]: spec %d, reference %d", tc.op, i, dst[i], want)
			}
		}
		// Constant form with a constant that wraps at int32 width: the
		// truncate-first evaluation must still match truncate-last.
		bigC := int64(math.MaxInt32) + 12345
		dstC := make([]int32, len(xs32))
		kC, ok := specializedBinary[int32](binKey(tensor.Int32, tc.op, true))
		if !ok {
			t.Fatalf("%s: specialized int32 const kernel missing", tc.op)
		}
		kC(dstC, xs32, nil, constArg(bytecode.ConstInt(bigC)))
		for i := range xs32 {
			want := int32(tc.k(int64(xs32[i]), bigC))
			if dstC[i] != want {
				t.Fatalf("%s int32-const[%d]: spec %d, reference %d", tc.op, i, dstC[i], want)
			}
		}
		// int64 arr-arr.
		xs64 := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62), 2654435761}
		ys64 := []int64{1, -1, math.MaxInt64, 3, math.MinInt64, 7, -13, 40503}
		dst64 := make([]int64, len(xs64))
		k64, ok := specializedBinary[int64](binKey(tensor.Int64, tc.op, false))
		if !ok {
			t.Fatalf("%s: specialized int64 kernel missing", tc.op)
		}
		k64(dst64, xs64, ys64, args{})
		for i := range xs64 {
			if want := tc.k(xs64[i], ys64[i]); dst64[i] != want {
				t.Fatalf("%s int64[%d]: spec %d, reference %d", tc.op, i, dst64[i], want)
			}
		}
		// uint8, arr-arr and a constant that wraps at 8 bits.
		xs8 := []uint8{0, 1, 2, 127, 128, 200, 254, 255}
		ys8 := []uint8{255, 1, 128, 129, 128, 100, 3, 255}
		dst8 := make([]uint8, len(xs8))
		k8, ok := specializedBinary[uint8](binKey(tensor.Uint8, tc.op, false))
		if !ok {
			t.Fatalf("%s: specialized uint8 kernel missing", tc.op)
		}
		k8(dst8, xs8, ys8, args{})
		k8C, ok := specializedBinary[uint8](binKey(tensor.Uint8, tc.op, true))
		if !ok {
			t.Fatalf("%s: specialized uint8 const kernel missing", tc.op)
		}
		dst8C := make([]uint8, len(xs8))
		k8C(dst8C, xs8, nil, constArg(bytecode.ConstInt(-1000003)))
		for i := range xs8 {
			if want := uint8(tc.k(int64(xs8[i]), int64(ys8[i]))); dst8[i] != want {
				t.Fatalf("%s uint8[%d]: spec %d, reference %d", tc.op, i, dst8[i], want)
			}
			if want := uint8(tc.k(int64(xs8[i]), -1000003)); dst8C[i] != want {
				t.Fatalf("%s uint8-const[%d]: spec %d, reference %d", tc.op, i, dst8C[i], want)
			}
		}
	}
}

// TestSpecializedEndToEnd runs whole programs through the engine — which
// now picks the specialized kernels on its fast path and in fused
// clusters — against a machine configured below the parallel threshold,
// and pins a float32 stream against its interpreted (Fusion: false) twin.
func TestSpecializedEndToEnd(t *testing.T) {
	src := `
.reg a0 float32 10000
.reg a1 float32 10000
.reg a2 float32 10000
.reg a3 int32 10000
.reg a4 int32 10000
BH_RANDOM a0 61 0
BH_RANDOM a1 67 0
BH_ADD a2 a0 a1
BH_MULTIPLY a2 a2 1.5
BH_DIVIDE a2 a2 a1
BH_RANDOM a3 71 0
BH_MULTIPLY a4 a3 2654435761
BH_ADD a4 a4 40503
BH_SYNC a2
BH_SYNC a4
`
	plain := run(t, Config{Fusion: false}, src)
	fused := run(t, Config{Fusion: true}, src)
	compareRegs(t, plain, fused, 2, 10000, 0)
	compareRegs(t, plain, fused, 4, 10000, 0)
}

// sameF32 is bit equality, except that any NaN equals any NaN.
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestStagedFloat32BitExact pins the staged float32 kernels — widen a
// block to float64, apply the scalar kernel, narrow — against the
// per-element formula they replace, for every float-class op that takes
// the generic body, every operand mix, in place and out of place, over a
// length that crosses several stage blocks and ends on a partial one.
func TestStagedFloat32BitExact(t *testing.T) {
	xs, ys := specF32Inputs()
	for len(xs) < 2*stageLen+37 {
		xs, ys = append(xs, ys...), append(ys, xs...)
	}
	for _, op := range bytecode.Opcodes() {
		if k, ok := floatUnaryKernel(op); ok && op != bytecode.OpIdentity {
			kern, ok := compileLoop[float32](loopKey{dt: tensor.Float32, op: op, arity: 1})
			if !ok {
				t.Fatalf("%s: no float32 kernel", op)
			}
			dst := make([]float32, len(xs))
			kern(dst, xs, nil, args{})
			inPlace := append([]float32(nil), xs...)
			kern(inPlace, inPlace, nil, args{})
			for i, x := range xs {
				want := float32(k(float64(x)))
				if !sameF32(dst[i], want) || !sameF32(inPlace[i], want) {
					t.Fatalf("%s(%v): staged %x, in place %x, reference %x", op, x,
						math.Float32bits(dst[i]), math.Float32bits(inPlace[i]), math.Float32bits(want))
				}
			}
		}
		k, ok := floatBinaryKernel(op)
		if !ok {
			continue
		}
		const c = 2.7
		for _, mix := range []struct {
			name           string
			aConst, bConst bool
			ref            func(i int) float64
		}{
			{"arr-arr", false, false, func(i int) float64 { return k(float64(xs[i]), float64(ys[i])) }},
			{"arr-const", false, true, func(i int) float64 { return k(float64(xs[i]), c) }},
			{"const-arr", true, false, func(i int) float64 { return k(c, float64(ys[i])) }},
		} {
			kern, ok := compileLoop[float32](loopKey{dt: tensor.Float32, op: op, arity: 2, aConst: mix.aConst, bConst: mix.bConst})
			if !ok {
				t.Fatalf("%s %s: no float32 kernel", op, mix.name)
			}
			var a, b []float32
			if !mix.aConst {
				a = xs
			}
			if !mix.bConst {
				b = ys
			}
			dst := make([]float32, len(xs))
			kern(dst, a, b, args{{f: c}, {f: c}})
			for i := range xs {
				if want := float32(mix.ref(i)); !sameF32(dst[i], want) {
					t.Fatalf("%s %s [%d] (%v, %v): kernel %x, reference %x", op, mix.name, i, xs[i], ys[i],
						math.Float32bits(dst[i]), math.Float32bits(want))
				}
			}
		}
	}
}
