package vm

import (
	"math"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Differential tests: every elementwise op-code must produce identical
// results through the contiguous fast path and the strided slow path, and
// match a scalar Go reference on spot values. This pins the kernel table
// against both dispatch layers.

// refBinary mirrors the float kernel semantics in plain Go.
func refBinary(op bytecode.Opcode, a, b float64) float64 {
	k, ok := floatBinaryKernel(op)
	if !ok {
		panic("no kernel " + op.String())
	}
	return k(a, b)
}

func TestBinaryOpsFastVsStrided(t *testing.T) {
	binaryOps := []bytecode.Opcode{
		bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpDivide,
		bytecode.OpPower, bytecode.OpMod, bytecode.OpMaximum, bytecode.OpMinimum,
		bytecode.OpArctan2,
	}
	const n = 64
	for _, op := range binaryOps {
		t.Run(op.String(), func(t *testing.T) {
			// Contiguous program.
			src := `
.reg a0 float64 ` + itoa(n) + `
.reg a1 float64 ` + itoa(n) + `
.reg a2 float64 ` + itoa(n) + `
BH_RANDOM a0 11 0
BH_RANDOM a1 13 0
BH_ADD a0 a0 0.5
BH_ADD a1 a1 0.5
` + op.String() + ` a2 a0 a1
BH_SYNC a2
`
			m := run(t, Config{}, src)
			fast := regSlice(t, m, 2, n)

			// Same values through strided views over doubled buffers.
			n2 := itoa(2 * n)
			strided := `
.reg a0 float64 ` + n2 + `
.reg a1 float64 ` + n2 + `
.reg a2 float64 ` + n2 + `
BH_RANDOM a0 [0:` + itoa(n) + `:1] 11 0
BH_RANDOM a1 [0:` + itoa(n) + `:1] 13 0
BH_ADD a0 [0:` + itoa(n) + `:1] a0 [0:` + itoa(n) + `:1] 0.5
BH_ADD a1 [0:` + itoa(n) + `:1] a1 [0:` + itoa(n) + `:1] 0.5
BH_IDENTITY a0 [0:` + n2 + `:2] a0 [0:` + itoa(n) + `:1]
BH_IDENTITY a1 [1:` + itoa(2*n+1) + `:2] a1 [0:` + itoa(n) + `:1]
` + op.String() + ` a2 [0:` + n2 + `:2] a0 [0:` + n2 + `:2] a1 [1:` + itoa(2*n+1) + `:2]
BH_SYNC a2
`
			ms := run(t, Config{}, strided)
			tt, ok := ms.Tensor(2, mustView(0, tensor.MustShape(n), []int{2}))
			if !ok {
				t.Fatal("strided result missing")
			}
			slow := tt.Float64Slice()

			for i := 0; i < n; i++ {
				if fast[i] != slow[i] && !(math.IsNaN(fast[i]) && math.IsNaN(slow[i])) {
					t.Fatalf("element %d: fast %v, strided %v", i, fast[i], slow[i])
				}
			}
			// Spot-check against the scalar reference.
			a0 := regSlice(t, m, 0, n)
			a1 := regSlice(t, m, 1, n)
			for i := 0; i < n; i++ {
				want := refBinary(op, a0[i], a1[i])
				if fast[i] != want && !(math.IsNaN(fast[i]) && math.IsNaN(want)) {
					t.Fatalf("element %d: got %v, reference %v (a=%v b=%v)", i, fast[i], want, a0[i], a1[i])
				}
			}
		})
	}
}

func TestUnaryOpsFastVsStrided(t *testing.T) {
	unaryOps := []bytecode.Opcode{
		bytecode.OpNegative, bytecode.OpAbsolute, bytecode.OpSqrt, bytecode.OpExp,
		bytecode.OpExpm1, bytecode.OpLog1p, bytecode.OpSin, bytecode.OpCos,
		bytecode.OpTan, bytecode.OpArctan, bytecode.OpSinh, bytecode.OpCosh,
		bytecode.OpTanh, bytecode.OpFloor, bytecode.OpCeil, bytecode.OpRint,
		bytecode.OpTrunc, bytecode.OpSign,
	}
	const n = 64
	for _, op := range unaryOps {
		t.Run(op.String(), func(t *testing.T) {
			src := `
.reg a0 float64 ` + itoa(n) + `
.reg a1 float64 ` + itoa(n) + `
BH_RANDOM a0 17 0
BH_SUBTRACT a0 a0 0.25
BH_MULTIPLY a0 a0 3.0
` + op.String() + ` a1 a0
BH_SYNC a1
`
			m := run(t, Config{}, src)
			fast := regSlice(t, m, 1, n)
			a0 := regSlice(t, m, 0, n)

			k, ok := floatUnaryKernel(op)
			if !ok {
				t.Fatalf("no kernel for %s", op)
			}
			for i := 0; i < n; i++ {
				want := k(a0[i])
				if fast[i] != want && !(math.IsNaN(fast[i]) && math.IsNaN(want)) {
					t.Fatalf("element %d: got %v, reference %v (x=%v)", i, fast[i], want, a0[i])
				}
			}

			// Strided output: odd slots of a doubled buffer.
			n2 := itoa(2 * n)
			strided := `
.reg a0 float64 ` + itoa(n) + `
.reg a1 float64 ` + n2 + `
BH_RANDOM a0 17 0
BH_SUBTRACT a0 a0 0.25
BH_MULTIPLY a0 a0 3.0
` + op.String() + ` a1 [1:` + itoa(2*n+1) + `:2] a0 [0:` + itoa(n) + `:1]
BH_SYNC a1 [1:` + itoa(2*n+1) + `:2]
`
			ms := run(t, Config{}, strided)
			tt, ok := ms.Tensor(1, mustView(1, tensor.MustShape(n), []int{2}))
			if !ok {
				t.Fatal("strided result missing")
			}
			slow := tt.Float64Slice()
			for i := 0; i < n; i++ {
				if fast[i] != slow[i] && !(math.IsNaN(fast[i]) && math.IsNaN(slow[i])) {
					t.Fatalf("element %d: fast %v, strided %v", i, fast[i], slow[i])
				}
			}
		})
	}
}

func TestIntVsFloatClassAgreement(t *testing.T) {
	// For small integers, the int64 and float64 computation classes must
	// agree on the shared arithmetic ops.
	ops := []bytecode.Opcode{
		bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply,
		bytecode.OpMaximum, bytecode.OpMinimum, bytecode.OpPower,
	}
	for _, op := range ops {
		t.Run(op.String(), func(t *testing.T) {
			fk, _ := floatBinaryKernel(op)
			ik, _ := intBinaryKernel(op)
			for a := int64(0); a <= 6; a++ {
				for b := int64(0); b <= 4; b++ {
					fi := fk(float64(a), float64(b))
					ii := ik(a, b)
					if float64(ii) != fi {
						t.Fatalf("%s(%d, %d): int %d, float %v", op, a, b, ii, fi)
					}
				}
			}
		})
	}
}

// compareRegs asserts registers r of machines a and b hold the same n
// values. Integer registers compare exactly; float registers compare within
// relative tolerance tol (tol 0 demands bit-equality, NaN matching NaN).
func compareRegs(t *testing.T, a, b *Machine, r bytecode.RegID, n int, tol float64) {
	t.Helper()
	view := tensor.NewView(tensor.MustShape(n))
	ta, ok := a.Tensor(r, view)
	if !ok {
		t.Fatalf("register %s missing on first machine", r)
	}
	tb, ok := b.Tensor(r, view)
	if !ok {
		t.Fatalf("register %s missing on second machine", r)
	}
	if !ta.Buf.DType().IsFloat() {
		for i := 0; i < n; i++ {
			if va, vb := ta.Buf.GetInt(i), tb.Buf.GetInt(i); va != vb {
				t.Fatalf("%s[%d]: %d vs %d", r, i, va, vb)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		va, vb := ta.Buf.Get(i), tb.Buf.Get(i)
		if math.IsNaN(va) && math.IsNaN(vb) {
			continue
		}
		if tol == 0 {
			if va != vb {
				t.Fatalf("%s[%d]: %v vs %v (bit-equality required)", r, i, va, vb)
			}
			continue
		}
		scale := math.Max(1, math.Max(math.Abs(va), math.Abs(vb)))
		if math.Abs(va-vb) > tol*scale {
			t.Fatalf("%s[%d]: %v vs %v exceeds tolerance %v", r, i, va, vb, tol)
		}
	}
}

// sweepCases cover every reduce/scan strategy (split-outputs, chunk-axis,
// serial), both computation classes, and strided/broadcast views. serialTol
// is the permitted relative difference against the forced-serial machine:
// 0 for integer folds and the bitwise-identical strategies, small for the
// float chunked paths (reassociation error, documented in reduce.go).
var sweepCases = []struct {
	name      string
	src       string
	out       bytecode.RegID
	n         int
	serialTol float64
}{
	{
		// 256 outputs ≥ reduceSplitMinOutputs → split-outputs strategy.
		name: "sum-rows-float64-split",
		src: `
.reg a0 float64 8448
.reg a1 float64 256
BH_RANDOM a0 7 0
BH_ADD_REDUCE a1 [0:256:1] a0 [0:8448:33][0:33:1] axis=1
BH_SYNC a1
`,
		out: 1, n: 256, serialTol: 0,
	},
	{
		// 3 outputs over a 20000-long axis → chunk-axis two-phase; float
		// partial combine reassociates, so vs-serial gets a tolerance.
		name: "sum-rows-float64-chunked",
		src: `
.reg a0 float64 60000
.reg a1 float64 3
BH_RANDOM a0 11 0
BH_ADD_REDUCE a1 [0:3:1] a0 [0:60000:20000][0:20000:1] axis=1
BH_SYNC a1
`,
		out: 1, n: 3, serialTol: 1e-9,
	},
	{
		// 96 outputs (below the split minimum) over a 5000-long axis:
		// big total work, medium axis — the chunk-axis band that used to
		// fall through to serial.
		name: "sum-rows-medium-chunked",
		src: `
.reg a0 float64 480000
.reg a1 float64 96
BH_RANDOM a0 43 0
BH_ADD_REDUCE a1 [0:96:1] a0 [0:480000:5000][0:5000:1] axis=1
BH_SYNC a1
`,
		out: 1, n: 96, serialTol: 1e-9,
	},
	{
		// Full reduction of 40000 int64 values, chunked: integer adds are
		// associative, so even the chunked path is bit-equal to serial.
		name: "sum-all-int64-chunked",
		src: `
.reg a0 int64 40000
.reg a1 int64 1
BH_RANDOM a0 13 0
BH_MOD a0 a0 97
BH_ADD_REDUCE a1 [0:1:1] a0 [0:40000:1] axis=0
BH_SYNC a1
`,
		out: 1, n: 1, serialTol: 0,
	},
	{
		// Wrapping int64 product over a long axis, chunked, still exact.
		name: "prod-all-int64-chunked",
		src: `
.reg a0 int64 40000
.reg a1 int64 1
BH_RANDOM a0 29 0
BH_MOD a0 a0 3
BH_ADD a0 a0 1
BH_MULTIPLY_REDUCE a1 [0:1:1] a0 [0:40000:1] axis=0
BH_SYNC a1
`,
		out: 1, n: 1, serialTol: 0,
	},
	{
		// Strided input view (every other element); MAX is associative and
		// exact in float, so chunking stays bit-equal.
		name: "max-strided-float64-chunked",
		src: `
.reg a0 float64 40000
.reg a1 float64 1
BH_RANDOM a0 17 0
BH_MAXIMUM_REDUCE a1 [0:1:1] a0 [0:40000:2] axis=0
BH_SYNC a1
`,
		out: 1, n: 1, serialTol: 0,
	},
	{
		// Broadcast input (200 virtual rows of the same vector, stride 0)
		// reduced along the data axis through the split-outputs strategy.
		name: "min-broadcast-float64-split",
		src: `
.reg a0 float64 200
.reg a1 float64 200
BH_RANDOM a0 19 0
BH_MINIMUM_REDUCE a1 [0:200:1] a0 [0:200:0][0:200:1] axis=1
BH_SYNC a1
`,
		out: 1, n: 200, serialTol: 0,
	},
	{
		// Strided output view: 256 sums written to the even slots of a
		// 512-element register.
		name: "sum-rows-strided-out-split",
		src: `
.reg a0 float64 8448
.reg a1 float64 512
BH_RANDOM a0 23 0
BH_ADD_REDUCE a1 [0:512:2] a0 [0:8448:33][0:33:1] axis=1
BH_SYNC a1
`,
		out: 1, n: 512, serialTol: 0,
	},
	{
		// Long 1-D prefix sum → three-pass chunked scan (multiple chunks:
		// 40000 > reduceChunk); float rescan carries reassociation error.
		name: "cumsum-float64-chunked",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
BH_RANDOM a0 31 0
BH_ADD_ACCUMULATE a1 a0 axis=0
BH_SYNC a1
`,
		out: 1, n: 40000, serialTol: 1e-9,
	},
	{
		// Row-wise int64 prefix sums over 256 lines → split-outputs scan.
		name: "cumsum-rows-int64-split",
		src: `
.reg a0 int64 8448
.reg a1 int64 8448
BH_RANDOM a0 37 0
BH_MOD a0 a0 1000
BH_ADD_ACCUMULATE a1 [0:8448:33][0:33:1] a0 [0:8448:33][0:33:1] axis=1
BH_SYNC a1
`,
		out: 1, n: 8448, serialTol: 0,
	},
	{
		// Long wrapping int64 prefix product through the three-pass scan.
		name: "cumprod-int64-chunked",
		src: `
.reg a0 int64 40000
.reg a1 int64 40000
BH_RANDOM a0 41 0
BH_MOD a0 a0 3
BH_ADD a0 a0 1
BH_MULTIPLY_ACCUMULATE a1 a0 axis=0
BH_SYNC a1
`,
		out: 1, n: 40000, serialTol: 0,
	},
}

// TestSweepWorkersDifferential pins the parallel reduction/scan engine:
// for every strategy, a Workers:1 and a Workers:8 machine with the same
// ParallelThreshold must produce bit-equal results (strategy selection and
// chunk boundaries are worker-independent by construction), equal to the
// reference engine (refInterpret) at that threshold and, forced serial, at
// its own, and both must match a forced-serial machine exactly for integer
// folds and within the documented reassociation tolerance for float
// chunked folds.
func TestSweepWorkersDifferential(t *testing.T) {
	const threshold = 512 // low enough that every case crosses it
	for _, tc := range sweepCases {
		t.Run(tc.name, func(t *testing.T) {
			serial := run(t, Config{Workers: 1, ParallelThreshold: 1 << 30}, tc.src)
			w1 := run(t, Config{Workers: 1, ParallelThreshold: threshold}, tc.src)
			w8 := run(t, Config{Workers: 8, ParallelThreshold: threshold}, tc.src)
			compareRegs(t, w1, w8, tc.out, tc.n, 0)
			compareRegs(t, w8, serial, tc.out, tc.n, tc.serialTol)
			compareRegs(t, w8, runRef(t, Config{Workers: 8, ParallelThreshold: threshold}, tc.src), tc.out, tc.n, 0)
			compareRegs(t, serial, runRef(t, Config{Workers: 1, ParallelThreshold: 1 << 30}, tc.src), tc.out, tc.n, 0)
		})
	}
}

// TestAliasedSweepsStaySafe pins the aliasing demotion: when a reduction's
// or scan's output aliases its source buffer through a different window,
// the parallel strategies must fall back so results stay deterministic and
// race-free (run under -race) and equal to the serial machine and to the
// reference engine (refInterpret).
func TestAliasedSweepsStaySafe(t *testing.T) {
	cases := []struct {
		name string
		src  string
		out  bytecode.RegID
		n    int
	}{
		{
			// Output occupies the first half of the register the 256×2
			// source view reads — the split-outputs strategy would race.
			name: "reduce-aliased-out",
			src: `
.reg a0 float64 512
BH_RANDOM a0 7 0
BH_ADD_REDUCE a0 [0:256:1] a0 [0:512:2][0:2:1] axis=1
BH_SYNC a0 [0:256:1]
`,
			out: 0, n: 512,
		},
		{
			// Each line's sum lands on the first element the next line
			// reads, through every second slot: the split strategy demotes
			// and the serial sweep goes line by line, or a gathered block
			// would read those slots before the sums are written.
			name: "reduce-aliased-strided",
			src: `
.reg a0 float64 1100
BH_RANDOM a0 7 0
BH_ADD_REDUCE a0 [4:1028:4] a0 [0:1024:4][0:4:2] axis=1
BH_SYNC a0
`,
			out: 0, n: 1100,
		},
		{
			// Shifted in-place scan: out window starts one slot after the
			// source window — the three-pass rescan would race.
			name: "scan-aliased-shifted",
			src: `
.reg a0 float64 40000
BH_RANDOM a0 11 0
BH_ADD_ACCUMULATE a0 [1:40000:1] a0 [0:39999:1] axis=0
BH_SYNC a0
`,
			out: 0, n: 40000,
		},
		{
			// The same one view element ahead through every second slot:
			// the input is gathered, so a blocked sweep would read slots
			// before the scan writes them; only the element-by-element
			// order matches the reference.
			name: "scan-aliased-shifted-strided",
			src: `
.reg a0 float64 512
BH_RANDOM a0 11 0
BH_ADD_ACCUMULATE a0 [2:512:2] a0 [0:510:2] axis=0
BH_SYNC a0
`,
			out: 0, n: 512,
		},
		{
			// Aligned in-place scan (equal views) stays parallel and must
			// still match the serial machine bit-for-bit across workers.
			name: "scan-aliased-aligned",
			src: `
.reg a0 int64 40000
BH_RANDOM a0 13 0
BH_MOD a0 a0 5
BH_ADD_ACCUMULATE a0 a0 axis=0
BH_SYNC a0
`,
			out: 0, n: 40000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := run(t, Config{Workers: 1, ParallelThreshold: 1 << 30}, tc.src)
			w8 := run(t, Config{Workers: 8, ParallelThreshold: 16}, tc.src)
			compareRegs(t, w8, serial, tc.out, tc.n, 0)
			compareRegs(t, w8, runRef(t, Config{Workers: 8, ParallelThreshold: 16}, tc.src), tc.out, tc.n, 0)
		})
	}
}

// TestFusedVsInterpretedDTypes sweeps the dtype-generic fused engine:
// the same chain (contiguous cluster plus a strided in-place step) must
// be bit-identical with fusion on and off for every supported dtype.
func TestFusedVsInterpretedDTypes(t *testing.T) {
	for _, dt := range []string{"float64", "float32", "int64", "int32", "uint8"} {
		t.Run(dt, func(t *testing.T) {
			src := `
.reg a0 ` + dt + ` 4096
.reg a1 ` + dt + ` 4096
BH_RANDOM a0 31 0
BH_MOD a0 a0 100
BH_MULTIPLY a1 a0 3
BH_ADD a1 a1 7
BH_MAXIMUM a1 a1 a0
BH_MULTIPLY a1 [0:4096:2] a1 [0:4096:2] 2
BH_SUBTRACT a1 a1 a0
BH_SYNC a1
`
			interp := run(t, Config{Fusion: false}, src)
			fused := run(t, Config{Fusion: true}, src)
			fusedPar := run(t, Config{Fusion: true, Workers: 8, ParallelThreshold: 256}, src)
			compareRegs(t, interp, fused, 1, 4096, 0)
			compareRegs(t, fused, fusedPar, 1, 4096, 0)
			if fused.Stats().FusedInstructions == 0 {
				t.Error("no instructions fused")
			}
			dtype, err := tensor.ParseDType(dt)
			if err != nil {
				t.Fatal(err)
			}
			if fused.Stats().FusedByDType.Get(dtype) == 0 {
				t.Errorf("FusedByDType[%s] = 0", dt)
			}
		})
	}
}

// TestFusedBoolCluster pins bool-dtype fusion for logical chains: the
// bool steps fuse (with the BH_RANDOM and the float→bool comparison, a
// promoted step) and the results match the accessor path bit-for-bit.
func TestFusedBoolCluster(t *testing.T) {
	src := `
.reg a0 float64 4096
.reg a1 bool 4096
.reg a2 bool 4096
BH_RANDOM a0 37 0
BH_GREATER a1 a0 0.25
BH_LOGICAL_NOT a2 a1
BH_LOGICAL_AND a2 a2 a1
BH_LOGICAL_OR a2 a2 true
BH_SYNC a2
`
	interp := run(t, Config{Fusion: false}, src)
	fused := run(t, Config{Fusion: true}, src)
	compareRegs(t, interp, fused, 2, 4096, 0)
	if fused.Stats().FusedByDType.Get(tensor.Bool) == 0 {
		t.Error("bool steps did not fuse")
	}
}

// epilogueCases cover the reduction epilogue's fold nests: every strategy
// (full, last-axis/split-outputs, chunked), gathered strided and
// broadcast producers, float32/int32/bool dtypes, MAX folds, and a live
// (materialized) producer. serialTol follows the
// reduce.go contract: 0 except chunked float folds vs the forced-serial
// machine.
var epilogueCases = []struct {
	name      string
	src       string
	out       bytecode.RegID
	n         int
	serialTol float64
	wantFR    int
}{
	{
		// The acceptance shape: sum(x*y) as one sweep, chunk-axis fold.
		name: "sum-xy-float64",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 float64 40000
.reg a3 float64 1
BH_RANDOM a0 11 0
BH_RANDOM a1 13 0
BH_MULTIPLY a2 a0 a1
BH_ADD_REDUCE a3 [0:1:1] a2 axis=0
BH_FREE a2
BH_SYNC a3
`,
		out: 3, n: 1, serialTol: 1e-9, wantFR: 1,
	},
	{
		name: "sum-xy-float32",
		src: `
.reg a0 float32 40000
.reg a1 float32 40000
.reg a2 float32 40000
.reg a3 float32 1
BH_RANDOM a0 11 0
BH_RANDOM a1 13 0
BH_MULTIPLY a2 a0 a1
BH_ADD_REDUCE a3 [0:1:1] a2 axis=0
BH_FREE a2
BH_SYNC a3
`,
		out: 3, n: 1, serialTol: 1e-5, wantFR: 1,
	},
	{
		// Deep float32 chain: every producer stays virtual.
		name: "chain-float32-chunked",
		src: `
.reg a0 float32 40000
.reg a1 float32 40000
.reg a2 float32 40000
.reg a3 float32 1
BH_RANDOM a0 17 0
BH_MULTIPLY a1 a0 3
BH_ADD a1 a1 0.5
BH_MULTIPLY a2 a1 a0
BH_ADD_REDUCE a3 [0:1:1] a2 axis=0
BH_FREE a1
BH_FREE a2
BH_SYNC a3
`,
		out: 3, n: 1, serialTol: 1e-5, wantFR: 1,
	},
	{
		// Exact int32 fold: bit-equal everywhere including vs serial.
		name: "sum-hash-int32",
		src: `
.reg a0 int32 40000
.reg a1 int32 40000
.reg a2 int32 1
BH_RANDOM a0 19 0
BH_MOD a0 a0 977
BH_MULTIPLY a1 a0 31
BH_ADD a1 a1 7
BH_MULTIPLY a1 a1 a0
BH_ADD_REDUCE a2 [0:1:1] a1 axis=0
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 1, serialTol: 0, wantFR: 1,
	},
	{
		// Last-axis reduce over 256 rows: split-outputs blockwise fold.
		name: "rows-split-float64",
		src: `
.reg a0 float64 8448
.reg a1 float64 8448
.reg a2 float64 256
BH_RANDOM a0 7 0
BH_MULTIPLY a1 [0:8448:33][0:33:1] a0 [0:8448:33][0:33:1] a0 [0:8448:33][0:33:1]
BH_ADD_REDUCE a2 [0:256:1] a1 [0:8448:33][0:33:1] axis=1
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 256, serialTol: 0, wantFR: 1,
	},
	{
		// MAX fold is exact in float: bit-equal vs serial even chunked.
		name: "max-chain-float64",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 float64 1
BH_RANDOM a0 23 0
BH_SUBTRACT a1 a0 0.5
BH_ABSOLUTE a1 a1
BH_MAXIMUM_REDUCE a2 [0:1:1] a1 axis=0
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 1, serialTol: 0, wantFR: 1,
	},
	{
		// Strided producer inputs: gathered into the fold nest's scratch.
		name: "sum-strided-float64",
		src: `
.reg a0 float64 80000
.reg a1 float64 40000
.reg a2 float64 1
BH_RANDOM a0 29 0
BH_MULTIPLY a1 a0 [0:80000:2] a0 [1:80001:2]
BH_ADD_REDUCE a2 [0:1:1] a1 axis=0
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 1, serialTol: 1e-9, wantFR: 1,
	},
	{
		// Broadcast input (stride-0 leading dim) reduced along the data
		// axis: a gathered input through the split-outputs strategy.
		name: "sum-broadcast-float64",
		src: `
.reg a0 float64 200
.reg a1 float64 40000
.reg a2 float64 200
BH_RANDOM a0 41 0
BH_MULTIPLY a1 [0:40000:200][0:200:1] a0 [0:200:0][0:200:1] 2.0
BH_ADD_REDUCE a2 [0:200:1] a1 [0:40000:200][0:200:1] axis=1
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 200, serialTol: 0, wantFR: 1,
	},
	{
		// Bool epilogue: a logical producer folded into OR_REDUCE.
		name: "any-bool",
		src: `
.reg a0 float64 5000
.reg a1 bool 5000
.reg a2 bool 5000
.reg a3 bool 1
BH_RANDOM a0 43 0
BH_GREATER a1 a0 0.9999
BH_LOGICAL_NOT a2 a1
BH_LOGICAL_AND_REDUCE a3 [0:1:1] a2 axis=0
BH_FREE a2
BH_SYNC a3
`,
		out: 3, n: 1, serialTol: 0, wantFR: 1,
	},
	{
		// Live producer: a1 is SYNCed after the reduce, so it must
		// materialize while the fold still fuses.
		name: "sum-live-producer",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 float64 1
BH_RANDOM a0 47 0
BH_MULTIPLY a1 a0 a0
BH_ADD_REDUCE a2 [0:1:1] a1 axis=0
BH_SYNC a1
BH_SYNC a2
`,
		out: 2, n: 1, serialTol: 1e-9, wantFR: 1,
	},
	{
		// Leading-axis reduce: the fold nest moves axis 0 innermost, so
		// every producer run is gathered. Per-line folds are exact, so
		// serial comparison is bitwise too.
		name: "sum-axis0-float64",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 float64 200
BH_RANDOM a0 31 0
BH_MULTIPLY a1 [0:40000:200][0:200:1] a0 [0:40000:200][0:200:1] 1.5
BH_ADD_REDUCE a2 [0:200:1] a1 [0:40000:200][0:200:1] axis=0
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 200, serialTol: 0, wantFR: 1,
	},
	{
		// Interior axis of a 3-D producer: lines are the (outer, inner)
		// pairs around axis 1.
		name: "sum-midaxis-float64",
		src: `
.reg a0 float64 27000
.reg a1 float64 27000
.reg a2 float64 900
BH_RANDOM a0 53 0
BH_MULTIPLY a1 [0:27000:900][0:900:30][0:30:1] a0 [0:27000:900][0:900:30][0:30:1] a0 [0:27000:900][0:900:30][0:30:1]
BH_ADD_REDUCE a2 [0:900:30][0:30:1] a1 [0:27000:900][0:900:30][0:30:1] axis=1
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 900, serialTol: 0, wantFR: 1,
	},
	{
		// Argmin epilogue over rows: the (value, index) fold through the
		// split-outputs strategy, bit-exact everywhere.
		name: "argmin-rows-float64",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 int64 200
BH_RANDOM a0 37 0
BH_SUBTRACT a1 [0:40000:200][0:200:1] a0 [0:40000:200][0:200:1] 0.5
BH_ABSOLUTE a1 [0:40000:200][0:200:1] a1 [0:40000:200][0:200:1]
BH_ARGMIN_REDUCE a2 [0:200:1] a1 [0:40000:200][0:200:1] axis=1
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 200, serialTol: 0, wantFR: 1,
	},
	{
		// Argmax epilogue over one long axis whose producer makes NaNs
		// (sqrt of negatives): the chunked (value, index) fold must
		// reproduce the serial first-NaN-wins winner exactly.
		name: "argmax-nan-chunked-float64",
		src: `
.reg a0 float64 40000
.reg a1 float64 40000
.reg a2 int64 1
BH_RANDOM a0 41 0
BH_SUBTRACT a1 a0 0.5
BH_SQRT a1 a1
BH_ARGMAX_REDUCE a2 [0:1:1] a1 axis=0
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 1, serialTol: 0, wantFR: 1,
	},
	{
		// Integer argmin epilogue: comparisons run in the int64 class.
		name: "argmin-int32",
		src: `
.reg a0 int32 40000
.reg a1 int32 40000
.reg a2 int64 1
BH_RANDOM a0 43 0
BH_MOD a1 a0 997
BH_ARGMIN_REDUCE a2 [0:1:1] a1 axis=0
BH_FREE a1
BH_SYNC a2
`,
		out: 2, n: 1, serialTol: 0, wantFR: 1,
	},
}

// TestReductionEpilogueDifferential pins the folded sweep against the
// two-sweep reference engine (refInterpret), against the unfused plan
// (its reduction a fold nest of its own) and across worker counts: at one
// threshold every engine picks the same strategy with the same chunk
// boundaries, so every comparison except forced-serial-vs-chunked-float
// demands bit-equality.
func TestReductionEpilogueDifferential(t *testing.T) {
	const threshold = 512
	for _, tc := range epilogueCases {
		t.Run(tc.name, func(t *testing.T) {
			ref1 := runRef(t, Config{Workers: 1, ParallelThreshold: threshold}, tc.src)
			ref8 := runRef(t, Config{Workers: 8, ParallelThreshold: threshold}, tc.src)
			plain8 := run(t, Config{Fusion: false, Workers: 8, ParallelThreshold: threshold}, tc.src)
			fused1 := run(t, Config{Fusion: true, Workers: 1, ParallelThreshold: threshold}, tc.src)
			fused8 := run(t, Config{Fusion: true, Workers: 8, ParallelThreshold: threshold}, tc.src)
			serial := runRef(t, Config{Workers: 1, ParallelThreshold: 1 << 30}, tc.src)
			compareRegs(t, fused1, fused8, tc.out, tc.n, 0)
			compareRegs(t, fused8, ref8, tc.out, tc.n, 0)
			compareRegs(t, plain8, ref8, tc.out, tc.n, 0)
			compareRegs(t, ref1, ref8, tc.out, tc.n, 0)
			compareRegs(t, fused8, serial, tc.out, tc.n, tc.serialTol)
			if fr := fused8.Stats().FusedReductions; fr != tc.wantFR {
				t.Errorf("FusedReductions = %d, want %d", fr, tc.wantFR)
			}
		})
	}
}

// TestEpilogueLiveProducerValues: a materialized producer register holds
// the same values the reference interpreter writes.
func TestEpilogueLiveProducerValues(t *testing.T) {
	var src string
	for _, tc := range epilogueCases {
		if tc.name == "sum-live-producer" {
			src = tc.src
		}
	}
	interp := runRef(t, Config{}, src)
	fused := run(t, Config{Fusion: true}, src)
	compareRegs(t, interp, fused, 1, 40000, 0)
}

// TestEpilogueSkipsMaterialization: the acceptance claim — sum(x*y) runs
// as one fused sweep and the dead temporary never allocates a buffer.
func TestEpilogueSkipsMaterialization(t *testing.T) {
	for _, dt := range []string{"float64", "float32"} {
		t.Run(dt, func(t *testing.T) {
			src := `
.reg a0 ` + dt + ` 20000
.reg a1 ` + dt + ` 20000
.reg a2 ` + dt + ` 20000
.reg a3 ` + dt + ` 1
BH_RANDOM a0 11 0
BH_RANDOM a1 13 0
BH_MULTIPLY a2 a0 a1
BH_ADD_REDUCE a3 [0:1:1] a2 axis=0
BH_FREE a2
BH_SYNC a3
`
			m := run(t, Config{Fusion: true}, src)
			st := m.Stats()
			if st.FusedReductions != 1 {
				t.Errorf("FusedReductions = %d, want 1", st.FusedReductions)
			}
			// a0, a1 (inputs) and a3 (result) materialize; a2 must not.
			if st.BuffersAllocated != 3 {
				t.Errorf("BuffersAllocated = %d, want 3 (temporary a2 must stay virtual)", st.BuffersAllocated)
			}
			// The two RANDOMs, MULTIPLY and ADD_REDUCE share one sweep.
			if st.Sweeps != 1 {
				t.Errorf("Sweeps = %d, want 1", st.Sweeps)
			}
		})
	}
}

// TestEpilogueAliasedOutputFallsBack: when the reduction output register
// is bound to the same buffer as a producer input, folding would write
// while other lines still read — the VM must fall back to the two-sweep
// path and still match unfused execution.
func TestEpilogueAliasedOutputFallsBack(t *testing.T) {
	build := func() (*bytecode.Program, tensor.Tensor) {
		p := bytecode.NewProgram()
		x := p.NewReg(tensor.Float64, 1000)
		tmp := p.NewReg(tensor.Float64, 1000)
		s := p.NewReg(tensor.Float64, 1001)
		v := tensor.NewView(tensor.MustShape(1000))
		outView, err := tensor.NewStridedView(1000, tensor.MustShape(1), []int{1})
		if err != nil {
			t.Fatal(err)
		}
		p.MarkInput(x)
		p.MarkInput(s)
		p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(tmp, v), bytecode.Reg(x, v), bytecode.Reg(x, v))
		p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(s, outView), bytecode.Reg(tmp, v), 0)
		p.EmitFree(bytecode.Reg(tmp, v))
		p.EmitSync(bytecode.Reg(s, outView))
		// One backing tensor: x reads [0:1000), the sum lands at 1000.
		shared := tensor.MustNew(tensor.Float64, tensor.MustShape(1001))
		shared.FillRandom(7, 0, 1)
		return p, shared
	}

	runWith := func(fusion bool) float64 {
		p, shared := build()
		m := New(Config{Fusion: fusion})
		defer m.Close()
		m.Bind(0, shared)
		m.Bind(2, shared)
		if err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		if fusion && m.Stats().FusedReductions != 0 {
			t.Error("aliased epilogue did not fall back")
		}
		return shared.Buf.Get(1000)
	}

	plain := runWith(false)
	fused := runWith(true)
	if plain != fused {
		t.Errorf("aliased reduce differs: fused %v, plain %v", fused, plain)
	}
}

// TestFusedErrorNamesFailingInstruction pins the error path: when a later
// step of a cluster fails to compile, the error names that instruction,
// not the cluster's first.
func TestFusedErrorNamesFailingInstruction(t *testing.T) {
	p := bytecode.NewProgram()
	a0 := p.NewReg(tensor.Float64, 64)
	a1 := p.NewReg(tensor.Float64, 64)
	v := tensor.NewView(tensor.MustShape(64))
	p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstFloat(1)))
	p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a0, v), bytecode.Reg(a0, v), bytecode.Reg(a1, v))
	p.MarkInput(a1)
	m := New(Config{Fusion: true})
	defer m.Close()
	// Bind a1 with the wrong storage type so only the second step fails.
	m.Bind(a1, tensor.MustNew(tensor.Float32, tensor.MustShape(64)))
	err := m.CompileValidated(p).Execute(m, nil)
	if err == nil {
		t.Fatal("expected execution error")
	}
	if !strings.Contains(err.Error(), "instr 1") || !strings.Contains(err.Error(), "BH_ADD") {
		t.Errorf("error does not name the failing instruction: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
