package vm

import (
	"math"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// runErr assembles src and returns the execution error (nil compile
// errors are fatal — these tests target the runtime dispatch paths in
// extension.go, not the assembler).
func runErr(t *testing.T, cfg Config, src string, bind func(m *Machine)) error {
	t.Helper()
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	if bind != nil {
		bind(m)
	}
	return m.CompileValidated(p).Execute(m, nil) // unvalidated: the runtime guards are under test
}

// TestExtensionMissingInputBuffer pins the runtime guard in the operand
// packer: a declared-but-never-bound input register must fail with the
// register's name, for both the In1 and In2 slots, identically with
// fusion on and off (extensions are barriers either way, but the error
// threads through different cluster wrappers).
func TestExtensionMissingInputBuffer(t *testing.T) {
	// The registers are deliberately NOT declared .in: declared inputs
	// trip the earlier "not bound" pre-check, while an undeclared,
	// never-written register (legal only with validation off) reaches the
	// extension's own packer guard.
	const solveUnboundA = `
.reg a0 float64 4
.reg a1 float64 2
.reg a2 float64 2
BH_IDENTITY a1 [0:2:1] 1
BH_SOLVE a2 [0:2:1] a0 [0:4:2][0:2:1] a1 [0:2:1]
BH_SYNC a2 [0:2:1]
`
	const matmulUnboundB = `
.reg a0 float64 4
.reg a1 float64 4
.reg a2 float64 4
BH_IDENTITY a0 [0:4:1] 1
BH_MATMUL a2 [0:4:2][0:2:1] a0 [0:4:2][0:2:1] a1 [0:4:2][0:2:1]
BH_SYNC a2 [0:4:1]
`
	cases := []struct {
		name, src, wantReg string
	}{
		{"solve-in1", solveUnboundA, "a0"},
		{"matmul-in2", matmulUnboundB, "a1"},
	}
	for _, tc := range cases {
		for _, fusion := range []bool{false, true} {
			name := tc.name + map[bool]string{false: "/unfused", true: "/fused"}[fusion]
			t.Run(name, func(t *testing.T) {
				err := runErr(t, Config{Fusion: fusion}, tc.src, nil)
				if err == nil {
					t.Fatal("unbound extension input executed successfully")
				}
				want := "input register " + tc.wantReg + " has no buffer"
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want mention of %q", err, want)
				}
			})
		}
	}
}

// TestExtensionShapeErrors drives each shape-legality gate under the
// extension dispatch: non-square LU/solve operands, inner-dimension
// mismatches surfacing from the dense unpack, and rank-3 operands the
// packer refuses outright.
func TestExtensionShapeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			// A is packed as 2x3 (rectangular): LU factorization refuses.
			"solve-nonsquare",
			`
.reg a0 float64 6
.reg a1 float64 2
.reg a2 float64 2
BH_IDENTITY a0 [0:6:1] 1
BH_IDENTITY a1 [0:2:1] 1
BH_SOLVE a2 [0:2:1] a0 [0:6:3][0:3:1] a1 [0:2:1]
BH_SYNC a2 [0:2:1]
`,
			"LU of 2x3 matrix",
		},
		{
			// 2x2 · 2x2 result cannot unpack into a 3-element view.
			"matmul-unpack-mismatch",
			`
.reg a0 float64 4
.reg a1 float64 4
.reg a2 float64 3
BH_IDENTITY a0 [0:4:1] 1
BH_IDENTITY a1 [0:4:1] 2
BH_MATMUL a2 [0:3:1] a0 [0:4:2][0:2:1] a1 [0:4:2][0:2:1]
BH_SYNC a2 [0:3:1]
`,
			"cannot unpack 2x2",
		},
		{
			// Rank-3 operand: the dense packer only accepts 1-d and 2-d.
			"inverse-rank3",
			`
.reg a0 float64 8
.reg a1 float64 8
BH_IDENTITY a0 [0:8:1] 1
BH_INVERSE a1 [0:8:4][0:4:2][0:2:1] a0 [0:8:4][0:4:2][0:2:1]
BH_SYNC a1 [0:8:1]
`,
			"want 1-d or 2-d tensor, got 3-d",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runErr(t, Config{}, tc.src, nil)
			if err == nil {
				t.Fatal("shape-illegal extension executed successfully")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestExtensionUnknownMethod covers the dispatch default: an instruction
// routed to execExtension with a non-extension op-code is a VM bug and
// must name the op instead of silently no-opping. The case is
// unreachable through Compile (which routes by Kind), so it is invoked
// directly.
func TestExtensionUnknownMethod(t *testing.T) {
	p := bytecode.NewProgram()
	r := p.NewReg(tensor.Float64, 2)
	v := tensor.NewView(tensor.MustShape(2))
	p.EmitUnary(bytecode.OpSqrt, bytecode.Reg(r, v), bytecode.Reg(r, v))

	m := New(Config{})
	defer m.Close()
	in := &bytecode.Instruction{Op: bytecode.OpSqrt, Out: bytecode.Reg(r, v), In1: bytecode.Reg(r, v)}
	err := m.execExtension(p, in)
	if err == nil || !strings.Contains(err.Error(), "unknown extension method BH_SQRT") {
		t.Errorf("err = %v, want unknown extension method BH_SQRT", err)
	}
}

// TestExtensionStats pins the counter contract of the extension path:
// each extension call counts as one instruction and one sweep (one
// "kernel launch" — however large the repack is, the VM issues it once)
// and adds the result view's element count.
func TestExtensionStats(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 4
.reg a1 float64 4
.reg a2 float64 4
BH_RANGE a0 [0:4:1]
BH_MATMUL a1 [0:4:2][0:2:1] a0 [0:4:2][0:2:1] a0 [0:4:2][0:2:1]
BH_INVERSE a2 [0:4:2][0:2:1] a1 [0:4:2][0:2:1]
BH_SYNC a2 [0:4:1]
`)
	st := m.Stats()
	// One generator + two extension calls, each over 4 elements; the
	// extensions launch one sweep apiece, like the generator.
	if st.Instructions != 3 {
		t.Errorf("Instructions = %d, want 3", st.Instructions)
	}
	if st.Sweeps != 3 {
		t.Errorf("Sweeps = %d, want 3 (extensions launch exactly one sweep each)", st.Sweeps)
	}
	if st.Elements != 12 {
		t.Errorf("Elements = %d, want 12", st.Elements)
	}

	// A = [[0,1],[2,3]] so A·A = [[2,3],[6,11]] — the values prove the
	// repack round-trip, not just the counters.
	want := []float64{2, 3, 6, 11}
	got := regSlice(t, m, 1, 4)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("matmul = %v, want %v", got, want)
		}
	}
}
