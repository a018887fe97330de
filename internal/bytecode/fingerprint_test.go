package bytecode

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"bohrium/internal/tensor"
)

// fpProg builds a small two-register batch: a1 = a0 * c; sync a1.
func fpProg(c Constant) *Program {
	p := NewProgram()
	a0 := p.NewReg(tensor.Float64, 10)
	a1 := p.NewReg(tensor.Float64, 10)
	v := tensor.NewView(tensor.MustShape(10))
	p.MarkInput(a0)
	p.EmitBinary(OpMultiply, Reg(a1, v), Reg(a0, v), Const(c))
	p.EmitSync(Reg(a1, v))
	p.MarkOutput(a1)
	return p
}

func TestFingerprintStable(t *testing.T) {
	a := fpProg(ConstFloat(2.5))
	b := fpProg(ConstFloat(2.5))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical programs fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
}

func TestFingerprintExcludesConstantValues(t *testing.T) {
	a := fpProg(ConstFloat(2.5))
	b := fpProg(ConstFloat(7.25))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("constant value keyed the fingerprint; only structure may")
	}
	// The constant's dtype, however, is structure.
	c := fpProg(ConstInt(2))
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("constant dtype change not reflected in fingerprint")
	}
}

func TestFingerprintExcludesUnusedDeclarations(t *testing.T) {
	a := fpProg(ConstFloat(1.5))
	b := fpProg(ConstFloat(1.5))
	b.NewReg(tensor.Int32, 999) // unrelated array living in the session
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("unreferenced declaration perturbed the fingerprint")
	}
}

// fpMutants are single structural edits of fpProg; each must change the
// fingerprint.
func fpMutants(t *testing.T) map[string]func(*Program) {
	return map[string]func(*Program){
		"opcode": func(p *Program) { p.Instrs[0].Op = OpAdd },
		"axis":   func(p *Program) { p.Instrs[0].Axis = 1 },
		"shape": func(p *Program) {
			v := tensor.NewView(tensor.MustShape(2, 5))
			p.Instrs[0].Out.View = v
			p.Instrs[0].In1.View = v
		},
		"stride": func(p *Program) {
			v, err := p.Instrs[0].In1.View.Slice(0, 0, 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			v.Shape[0] = 10 // keep extent, change stride only
			p.Instrs[0].In1.View = v
		},
		"offset": func(p *Program) { p.Instrs[0].In1.View.Offset = 3 },
		"reg-dtype": func(p *Program) {
			p.Regs[0].DType = tensor.Float32
		},
		"reg-len": func(p *Program) {
			p.Regs[0].Len = 20
		},
		"reg-id": func(p *Program) {
			p.NewReg(tensor.Float64, 10)
			p.Instrs[0].Out.Reg = RegID(2)
		},
		"input-role":  func(p *Program) { p.Inputs = nil },
		"output-role": func(p *Program) { p.Outputs = nil },
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpProg(ConstFloat(2.5))
	for name, mutate := range fpMutants(t) {
		m := fpProg(ConstFloat(2.5))
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change not reflected in fingerprint", name)
		}
	}
}

// oracleFingerprint is the earlier digest: SHA-256 over fixed 8-byte
// words, with the referenced registers gathered in a map and sorted. The
// one-pass encoding must partition programs exactly as it does.
func oracleFingerprint(p *Program) Fingerprint {
	h := sha256.New()
	var word [8]byte
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	used := map[RegID]bool{}
	writeOperand := func(o *Operand) {
		wr(int64(o.Kind))
		switch o.Kind {
		case OperandReg:
			used[o.Reg] = true
			wr(int64(o.Reg))
			ri, _ := p.Reg(o.Reg)
			wr(int64(ri.DType))
			wr(int64(ri.Len))
			wr(int64(o.View.Offset))
			wr(int64(len(o.View.Shape)))
			for _, d := range o.View.Shape {
				wr(int64(d))
			}
			for _, s := range o.View.Strides {
				wr(int64(s))
			}
		case OperandConst:
			wr(int64(o.Const.DType))
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		wr(int64(in.Op))
		wr(int64(in.Axis))
		writeOperand(&in.Out)
		writeOperand(&in.In1)
		writeOperand(&in.In2)
	}
	ids := make([]RegID, 0, len(used))
	for r := range used {
		ids = append(ids, r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	wr(int64(len(ids)))
	for _, r := range ids {
		wr(int64(r))
		wr(int64(p.role(r)))
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// TestFingerprintMatchesOracle checks, over every committed example
// listing and its variants plus fpProg and its mutants, that two programs
// fingerprint equal exactly when the oracle says they do.
func TestFingerprintMatchesOracle(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "listing.bh"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example listings found (%v)", err)
	}
	type named struct {
		name string
		p    *Program
	}
	var progs []named
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, named{path, p})
		// Equal structure: other constant values, an unused declaration.
		q := p.Clone()
		k := 3
		for i := range q.Instrs {
			for _, o := range []*Operand{&q.Instrs[i].In1, &q.Instrs[i].In2} {
				if o.IsConst() {
					o.Const = ConstOf(o.Const.DType, float64(k))
					k++
				}
			}
		}
		q.NewReg(tensor.Int32, 7)
		progs = append(progs, named{path + "+consts+decl", q})
		// Other structure: a prefix, and the roles dropped.
		if len(p.Instrs) > 1 {
			q = p.Clone()
			q.Instrs = q.Instrs[:len(q.Instrs)-1]
			progs = append(progs, named{path + "-last", q})
		}
		q = p.Clone()
		q.Inputs, q.Outputs = nil, nil
		progs = append(progs, named{path + "-roles", q})
		q = p.Clone()
		if o := firstConst(q); o != nil {
			if o.Const.DType == tensor.Float64 {
				o.Const = ConstInt(1)
			} else {
				o.Const = ConstFloat(1)
			}
			progs = append(progs, named{path + "-const-dtype", q})
		}
	}
	progs = append(progs, named{"fpProg", fpProg(ConstFloat(2.5))}, named{"fpProg'", fpProg(ConstFloat(7))})
	for name, mutate := range fpMutants(t) {
		m := fpProg(ConstFloat(2.5))
		mutate(m)
		progs = append(progs, named{"fpProg/" + name, m})
	}
	for i, a := range progs {
		for _, b := range progs[i:] {
			got := a.p.Fingerprint() == b.p.Fingerprint()
			want := oracleFingerprint(a.p) == oracleFingerprint(b.p)
			if got != want {
				t.Errorf("%s vs %s: fingerprints equal = %v, oracle equal = %v", a.name, b.name, got, want)
			}
		}
	}
}

// firstConst returns the program's first constant operand, or nil.
func firstConst(p *Program) *Operand {
	for i := range p.Instrs {
		for _, o := range [...]*Operand{&p.Instrs[i].In1, &p.Instrs[i].In2} {
			if o.IsConst() {
				return o
			}
		}
	}
	return nil
}

// jacobiProg is a 1-D Jacobi batch as the front end records it:
// t = ul + ur; t += f; t *= 0.5; uc = t; free t.
func jacobiProg(n int) *Program {
	p := NewProgram()
	u := p.NewReg(tensor.Float64, n)
	f := p.NewReg(tensor.Float64, n)
	t := p.NewReg(tensor.Float64, n-2)
	p.MarkInput(u)
	p.MarkInput(f)
	p.MarkOutput(u)
	inner := tensor.View{Offset: 1, Shape: tensor.MustShape(n - 2), Strides: []int{1}}
	left := tensor.View{Offset: 0, Shape: tensor.MustShape(n - 2), Strides: []int{1}}
	right := tensor.View{Offset: 2, Shape: tensor.MustShape(n - 2), Strides: []int{1}}
	tv := tensor.NewView(tensor.MustShape(n - 2))
	p.EmitBinary(OpAdd, Reg(t, tv), Reg(u, left), Reg(u, right))
	p.EmitBinary(OpAdd, Reg(t, tv), Reg(t, tv), Reg(f, inner))
	p.EmitBinary(OpMultiply, Reg(t, tv), Reg(t, tv), Const(ConstFloat(0.5)))
	p.EmitIdentity(Reg(u, inner), Reg(t, tv))
	p.EmitFree(Reg(t, tv))
	return p
}

func TestFingerprintAllocs(t *testing.T) {
	p := jacobiProg(2048)
	if n := testing.AllocsPerRun(100, func() { _ = p.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint of a %d-instruction batch allocates %v times, want 0", len(p.Instrs), n)
	}
}

// TestFingerprintManyRegisters exercises the heap fallback of the flag
// array: a register past fpStackRegs still keys its role.
func TestFingerprintManyRegisters(t *testing.T) {
	p := jacobiProg(64)
	for len(p.Regs) < fpStackRegs+8 {
		p.NewReg(tensor.Float64, 64)
	}
	hi := RegID(len(p.Regs) - 1)
	v := tensor.NewView(tensor.MustShape(64))
	p.EmitUnary(OpIdentity, Reg(hi, v), Reg(0, v))
	q := p.Clone()
	q.MarkOutput(hi)
	if p.Fingerprint() == q.Fingerprint() {
		t.Error("output role of a register past the stack flag array not keyed")
	}
	if (p.Fingerprint() == q.Fingerprint()) != (oracleFingerprint(p) == oracleFingerprint(q)) {
		t.Error("fallback disagrees with the oracle")
	}
	r := p.Clone()
	r.NewReg(tensor.Int32, 3)
	if p.Fingerprint() != r.Fingerprint() {
		t.Error("unreferenced declaration past the stack flag array perturbed the fingerprint")
	}
}

// TestFingerprintUndeclaredRegister: an unvalidated program naming a
// register it never declared fingerprints without panicking, and the
// register's role still keys the digest.
func TestFingerprintUndeclaredRegister(t *testing.T) {
	v := tensor.NewView(tensor.MustShape(10))
	for _, r := range []RegID{2, 99, -1} {
		p := fpProg(ConstFloat(1))
		p.EmitBinary(OpAdd, Reg(1, v), Reg(1, v), Reg(r, v))
		q := p.Clone()
		q.MarkInput(r)
		if p.Fingerprint() == q.Fingerprint() {
			t.Errorf("input role of undeclared register %s not keyed", r)
		}
	}
}

func TestConstantsRoundTrip(t *testing.T) {
	p := fpProg(ConstFloat(2.5))
	got := p.Constants()
	if len(got) != 1 || !got[0].Equal(ConstFloat(2.5)) {
		t.Fatalf("Constants() = %v", got)
	}
	// In1 before In2, instruction by instruction, appended to the caller's
	// buffer.
	v := tensor.NewView(tensor.MustShape(10))
	p.EmitBinary(OpAdd, Reg(1, v), Const(ConstInt(3)), Const(ConstInt(4)))
	buf := make([]Constant, 1, 8)
	got = p.AppendConstants(buf[:0])
	want := []Constant{ConstFloat(2.5), ConstInt(3), ConstInt(4)}
	if !slices.EqualFunc(got, want, Constant.Equal) || &got[0] != &buf[0] {
		t.Errorf("AppendConstants = %v (into the buffer: %v), want %v", got, &got[0] == &buf[0], want)
	}
}
