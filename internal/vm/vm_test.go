package vm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// run assembles src, executes it on a fresh machine with cfg, and returns
// the machine for register inspection.
func run(t *testing.T, cfg Config, src string) *Machine {
	t.Helper()
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	return m
}

// regSlice reads register r as a flat float64 slice through a contiguous
// 1-d view of n elements.
func regSlice(t *testing.T, m *Machine, r bytecode.RegID, n int) []float64 {
	t.Helper()
	tt, ok := m.Tensor(r, tensor.NewView(tensor.MustShape(n)))
	if !ok {
		t.Fatalf("register %s has no buffer", r)
	}
	return tt.Float64Slice()
}

func TestListing2Execution(t *testing.T) {
	// Paper Listing 1/2: zeros(10); a += 1 three times; every element
	// must be 3.
	m := run(t, Config{}, `
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
`)
	for i, v := range regSlice(t, m, 0, 10) {
		if v != 3 {
			t.Fatalf("a0[%d] = %v, want 3", i, v)
		}
	}
}

func TestListing3EqualsListing2(t *testing.T) {
	// The paper's optimized Listing 3 must produce identical results.
	m := run(t, Config{}, `
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 a0 3
BH_SYNC a0
`)
	for i, v := range regSlice(t, m, 0, 10) {
		if v != 3 {
			t.Fatalf("a0[%d] = %v, want 3", i, v)
		}
	}
}

func TestListing5PowerChain(t *testing.T) {
	// Paper Listing 5: x^10 via five multiplies; with x = 2 the result
	// must be 1024 everywhere.
	m := run(t, Config{}, `
.reg a0 float64 8
.reg a1 float64 8
BH_IDENTITY a0 2
BH_MULTIPLY a1 a0 a0
BH_MULTIPLY a1 a1 a1
BH_MULTIPLY a1 a1 a1
BH_MULTIPLY a1 a1 a0
BH_MULTIPLY a1 a1 a0
BH_SYNC a1
`)
	for i, v := range regSlice(t, m, 1, 8) {
		if v != 1024 {
			t.Fatalf("a1[%d] = %v, want 1024", i, v)
		}
	}
}

func TestPowerOpMatchesChain(t *testing.T) {
	// BH_POWER and the expanded multiply chain agree (eq. (1)).
	m := run(t, Config{}, `
.reg a0 float64 16
.reg a1 float64 16
BH_IDENTITY a0 1.5
BH_POWER a1 a0 10
BH_SYNC a1
`)
	want := math.Pow(1.5, 10)
	for i, v := range regSlice(t, m, 1, 16) {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("a1[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestBinaryOpsFloat(t *testing.T) {
	tests := []struct {
		op   string
		want float64
	}{
		{"BH_ADD", 9},
		{"BH_SUBTRACT", 5},
		{"BH_MULTIPLY", 14},
		{"BH_DIVIDE", 3.5},
		{"BH_POWER", 49},
		{"BH_MOD", 1},
		{"BH_MAXIMUM", 7},
		{"BH_MINIMUM", 2},
	}
	for _, tt := range tests {
		t.Run(tt.op, func(t *testing.T) {
			m := run(t, Config{}, `
.reg a0 float64 4
BH_IDENTITY a0 7.0
`+tt.op+` a0 a0 2.0
BH_SYNC a0
`)
			for _, v := range regSlice(t, m, 0, 4) {
				if v != tt.want {
					t.Fatalf("%s(7, 2) = %v, want %v", tt.op, v, tt.want)
				}
			}
		})
	}
}

func TestComparisonsProduceBool(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 4
.reg a1 bool 4
BH_IDENTITY a0 3.0
BH_LESS a1 a0 5.0
BH_SYNC a1
`)
	for _, v := range regSlice(t, m, 1, 4) {
		if v != 1 {
			t.Fatalf("3 < 5 = %v, want 1", v)
		}
	}
}

func TestUnaryOps(t *testing.T) {
	tests := []struct {
		op    string
		input string
		want  float64
	}{
		{"BH_SQRT", "9.0", 3},
		{"BH_NEGATIVE", "4.0", -4},
		{"BH_ABSOLUTE", "-4.0", 4},
		{"BH_EXP", "0.0", 1},
		{"BH_LOG", "1.0", 0},
		{"BH_FLOOR", "2.7", 2},
		{"BH_CEIL", "2.2", 3},
		{"BH_TRUNC", "-2.7", -2},
		{"BH_RINT", "2.5", 2},
		{"BH_SIGN", "-7.0", -1},
		{"BH_SIN", "0.0", 0},
		{"BH_COS", "0.0", 1},
	}
	for _, tt := range tests {
		t.Run(tt.op, func(t *testing.T) {
			m := run(t, Config{}, `
.reg a0 float64 4
.reg a1 float64 4
BH_IDENTITY a0 `+tt.input+`
`+tt.op+` a1 a0
BH_SYNC a1
`)
			for _, v := range regSlice(t, m, 1, 4) {
				if math.Abs(v-tt.want) > 1e-12 {
					t.Fatalf("%s(%s) = %v, want %v", tt.op, tt.input, v, tt.want)
				}
			}
		})
	}
}

func TestIntegerExactness(t *testing.T) {
	// Integer adds keep exact int64 semantics beyond float64 precision:
	// 2^62 + 1 is representable in int64 but not float64.
	m := run(t, Config{}, `
.reg a0 int64 4
BH_IDENTITY a0 4611686018427387904
BH_ADD a0 a0 1
BH_SYNC a0
`)
	tt, _ := m.Tensor(0, tensor.NewView(tensor.MustShape(4)))
	got := tt.Buf.GetInt(0)
	if got != 4611686018427387905 {
		t.Errorf("int64 add = %d, want 4611686018427387905", got)
	}
}

func TestIntegerPower(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 int64 4
.reg a1 int64 4
BH_IDENTITY a0 3
BH_POWER a1 a0 7
BH_SYNC a1
`)
	tt, _ := m.Tensor(1, tensor.NewView(tensor.MustShape(4)))
	if got := tt.Buf.GetInt(0); got != 2187 {
		t.Errorf("3^7 = %d, want 2187", got)
	}
}

func TestIntegerDivisionByZero(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 int64 2
.reg a1 int64 2
BH_IDENTITY a0 5
BH_DIVIDE a1 a0 0
BH_MOD a1 a1 0
BH_SYNC a1
`)
	tt, _ := m.Tensor(1, tensor.NewView(tensor.MustShape(2)))
	if got := tt.Buf.GetInt(0); got != 0 {
		t.Errorf("int 5/0 then %%0 = %d, want 0", got)
	}
}

func TestFloatDivisionByZero(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 2
BH_IDENTITY a0 5.0
BH_DIVIDE a0 a0 0.0
BH_SYNC a0
`)
	if v := regSlice(t, m, 0, 2)[0]; !math.IsInf(v, 1) {
		t.Errorf("float 5/0 = %v, want +Inf", v)
	}
}

func TestBitwiseAndShifts(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 int64 2
.reg a1 int64 2
BH_IDENTITY a0 12
BH_BITWISE_AND a1 a0 10
BH_LEFT_SHIFT a1 a1 2
BH_RIGHT_SHIFT a1 a1 1
BH_BITWISE_XOR a1 a1 1
BH_SYNC a1
`)
	tt, _ := m.Tensor(1, tensor.NewView(tensor.MustShape(2)))
	// ((12 & 10) << 2) >> 1 ^ 1 = (8 << 2 >> 1) ^ 1 = 16 ^ 1 = 17.
	if got := tt.Buf.GetInt(0); got != 17 {
		t.Errorf("bitwise chain = %d, want 17", got)
	}
}

func TestBroadcastRowAcrossMatrix(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 12
.reg a1 float64 4
BH_IDENTITY a0 [0:12:4][0:4:1] 10.0
BH_RANGE a1 [0:4:1]
BH_ADD a0 [0:12:4][0:4:1] a0 [0:12:4][0:4:1] a1 [0:3:0][0:4:1]
BH_SYNC a0 [0:12:4][0:4:1]
`)
	got := regSlice(t, m, 0, 12)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if got[i*4+j] != 10+float64(j) {
				t.Fatalf("a0[%d,%d] = %v, want %v", i, j, got[i*4+j], 10+float64(j))
			}
		}
	}
}

func TestStridedViewExecution(t *testing.T) {
	// Add 1 only to even indices.
	m := run(t, Config{}, `
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 [0:10:2] a0 [0:10:2] 1
BH_SYNC a0
`)
	got := regSlice(t, m, 0, 10)
	for i, v := range got {
		want := 0.0
		if i%2 == 0 {
			want = 1
		}
		if v != want {
			t.Fatalf("a0[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestMisalignedSelfOverlapSnapshots(t *testing.T) {
	// a[1:10] = a[0:9] + 0 must behave as if the right-hand side were
	// fully read first (NumPy-style), not smear a[0] everywhere.
	m := run(t, Config{}, `
.reg a0 float64 10
BH_RANGE a0
BH_ADD a0 [1:10:1] a0 [0:9:1] 0
BH_SYNC a0
`)
	got := regSlice(t, m, 0, 10)
	want := []float64{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift result = %v, want %v", got, want)
		}
	}
}

func TestRangeAndRandom(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 6
.reg a1 float64 1000
BH_RANGE a0
BH_RANDOM a1 42 0
BH_SYNC a0
BH_SYNC a1
`)
	for i, v := range regSlice(t, m, 0, 6) {
		if v != float64(i) {
			t.Fatalf("range[%d] = %v", i, v)
		}
	}
	vals := regSlice(t, m, 1, 1000)
	mean := 0.0
	for _, v := range vals {
		if v < 0 || v >= 1 {
			t.Fatalf("random value %v outside [0,1)", v)
		}
		mean += v
	}
	mean /= float64(len(vals))
	if mean < 0.4 || mean > 0.6 {
		t.Errorf("random mean = %v, want ~0.5", mean)
	}
	// Determinism: same seed, same stream.
	m2 := run(t, Config{}, `
.reg a1 float64 1000
BH_RANDOM a1 42 0
BH_SYNC a1
`)
	vals2 := regSlice(t, m2, 0, 1000)
	for i := range vals {
		if vals[i] != vals2[i] {
			t.Fatal("BH_RANDOM is not deterministic per seed")
		}
	}
}

func TestReductions(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 12
.reg a1 float64 3
.reg a2 float64 4
.reg a3 float64 1
BH_RANGE a0 [0:12:1]
BH_ADD_REDUCE a1 [0:3:1] a0 [0:12:4][0:4:1] axis=1
BH_ADD_REDUCE a2 [0:4:1] a0 [0:12:4][0:4:1] axis=0
BH_MAXIMUM_REDUCE a3 [0:1:1] a0 [0:12:1] axis=0
BH_SYNC a1
`)
	rows := regSlice(t, m, 1, 3)
	wantRows := []float64{6, 22, 38}
	for i := range wantRows {
		if rows[i] != wantRows[i] {
			t.Errorf("row sum[%d] = %v, want %v", i, rows[i], wantRows[i])
		}
	}
	cols := regSlice(t, m, 2, 4)
	wantCols := []float64{12, 15, 18, 21}
	for i := range wantCols {
		if cols[i] != wantCols[i] {
			t.Errorf("col sum[%d] = %v, want %v", i, cols[i], wantCols[i])
		}
	}
	if mx := regSlice(t, m, 3, 1)[0]; mx != 11 {
		t.Errorf("max = %v, want 11", mx)
	}
}

func TestIntReduction(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 int64 5
.reg a1 int64 1
BH_IDENTITY a0 3
BH_MULTIPLY_REDUCE a1 [0:1:1] a0 [0:5:1] axis=0
BH_SYNC a1
`)
	tt, _ := m.Tensor(1, tensor.NewView(tensor.MustShape(1)))
	if got := tt.Buf.GetInt(0); got != 243 {
		t.Errorf("3^5 product = %d, want 243", got)
	}
}

func TestScan(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 5
.reg a1 float64 5
BH_RANGE a0
BH_ADD_ACCUMULATE a1 a0 axis=0
BH_SYNC a1
`)
	got := regSlice(t, m, 1, 5)
	want := []float64{0, 1, 3, 6, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix sums = %v, want %v", got, want)
		}
	}
}

func TestSolveExtension(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x=1, y=3, through byte-code.
	p := bytecode.NewProgram()
	a := p.NewReg(tensor.Float64, 4)
	b := p.NewReg(tensor.Float64, 2)
	x := p.NewReg(tensor.Float64, 2)
	va := tensor.NewView(tensor.MustShape(2, 2))
	vb := tensor.NewView(tensor.MustShape(2))
	p.MarkInput(a)
	p.MarkInput(b)
	p.EmitBinary(bytecode.OpSolve, bytecode.Reg(x, vb), bytecode.Reg(a, va), bytecode.Reg(b, vb))
	p.EmitSync(bytecode.Reg(x, vb))

	m := New(Config{})
	defer m.Close()
	at, _ := tensor.FromFloat64s([]float64{2, 1, 1, 3}, tensor.MustShape(2, 2))
	bt, _ := tensor.FromFloat64s([]float64{5, 10}, tensor.MustShape(2))
	m.Bind(a, at)
	m.Bind(b, bt)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	got := regSlice(t, m, 2, 2)
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-3) > 1e-12 {
		t.Errorf("solve = %v, want [1 3]", got)
	}
}

func TestInverseThenMatmulEqualsSolve(t *testing.T) {
	// Equation (2): x = A⁻¹·B and SOLVE(A, B) agree.
	src := `
.reg a0 float64 9
.reg a1 float64 3
.reg a2 float64 9
.reg a3 float64 3
.reg a4 float64 3
.in a0
.in a1
BH_INVERSE a2 [0:9:3][0:3:1] a0 [0:9:3][0:3:1]
BH_MATMUL a3 [0:3:1][0:1:1] a2 [0:9:3][0:3:1] a1 [0:3:1][0:1:1]
BH_SOLVE a4 [0:3:1] a0 [0:9:3][0:3:1] a1 [0:3:1]
BH_SYNC a3
BH_SYNC a4
`
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	defer m.Close()
	at, _ := tensor.FromFloat64s([]float64{4, 1, 0, 1, 5, 2, 0, 2, 6}, tensor.MustShape(3, 3))
	bt, _ := tensor.FromFloat64s([]float64{1, 2, 3}, tensor.MustShape(3))
	m.Bind(0, at)
	m.Bind(1, bt)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	viaInv := regSlice(t, m, 3, 3)
	viaSolve := regSlice(t, m, 4, 3)
	for i := range viaInv {
		if math.Abs(viaInv[i]-viaSolve[i]) > 1e-9 {
			t.Errorf("paths disagree at %d: %v vs %v", i, viaInv[i], viaSolve[i])
		}
	}
}

func TestLUExtension(t *testing.T) {
	// A = [[4, 3], [6, 3]]: pivoting swaps rows, packed factors of P·A
	// are L = [[1, 0], [2/3, 1]], U = [[6, 3], [0, 1]].
	src := `
.reg a0 float64 4
.reg a1 float64 4
.in a0
BH_LU a1 [0:4:2][0:2:1] a0 [0:4:2][0:2:1]
BH_SYNC a1
`
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	defer m.Close()
	at, _ := tensor.FromFloat64s([]float64{4, 3, 6, 3}, tensor.MustShape(2, 2))
	m.Bind(0, at)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	got := regSlice(t, m, 1, 4)
	want := []float64{6, 3, 4.0 / 6.0, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("packed LU = %v, want %v", got, want)
		}
	}
}

func TestFreeReleasesBuffer(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 4
BH_IDENTITY a0 1
BH_FREE a0
`)
	if _, ok := m.Tensor(0, tensor.NewView(tensor.MustShape(4))); ok {
		t.Error("freed register still has a buffer")
	}
}

func TestUnboundInputRejected(t *testing.T) {
	p := bytecode.NewProgram()
	a := p.NewReg(tensor.Float64, 4)
	p.MarkInput(a)
	p.EmitSync(bytecode.Reg(a, tensor.NewView(tensor.MustShape(4))))
	m := New(Config{})
	defer m.Close()
	err := m.Run(p)
	if err == nil || !errors.Is(err, ErrExec) {
		t.Errorf("unbound input: %v, want ErrExec", err)
	}
}

func TestInvalidProgramRejected(t *testing.T) {
	p := bytecode.NewProgram()
	a := p.NewReg(tensor.Float64, 4)
	v := tensor.NewView(tensor.MustShape(4))
	p.EmitUnary(bytecode.OpSqrt, bytecode.Reg(a, v), bytecode.Reg(a, v)) // use before def
	m := New(Config{})
	defer m.Close()
	if err := m.Run(p); err == nil {
		t.Error("invalid program executed")
	}
}

func TestSingularSolveFails(t *testing.T) {
	src := `
.reg a0 float64 4
.reg a1 float64 2
.reg a2 float64 2
BH_IDENTITY a0 1.0
BH_IDENTITY a1 1.0
BH_SOLVE a2 [0:2:1] a0 [0:4:2][0:2:1] a1 [0:2:1]
`
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	defer m.Close()
	err = m.Run(p)
	if err == nil || !strings.Contains(err.Error(), "singular") {
		t.Errorf("singular solve: %v, want singular error", err)
	}
}

func TestStatsCounting(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 a0 1
BH_ADD a0 a0 1
BH_SYNC a0
`)
	st := m.Stats()
	if st.Instructions != 3 {
		t.Errorf("Instructions = %d, want 3 (SYNC excluded)", st.Instructions)
	}
	if st.Sweeps != 3 {
		t.Errorf("Sweeps = %d, want 3", st.Sweeps)
	}
	if st.Elements != 30 {
		t.Errorf("Elements = %d, want 30", st.Elements)
	}
}
