package vm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/tensor"
)

// The loop nest's proof obligation: for any program of elementwise sweeps
// over any views, the nest (fused and unfused, one worker and many) must
// leave every register bit-identical to the accessor interpreter.
// nestGen generates such programs from a byte stream, so one generator
// serves the seeded differential test and the native fuzz target.

var nestDTypes = []tensor.DType{tensor.Float64, tensor.Float32, tensor.Int64, tensor.Int32, tensor.Uint8, tensor.Bool}

// nestGen draws bounded choices from a byte stream; an exhausted stream
// yields zeros, so every input decodes to some valid program.
type nestGen struct {
	data []byte
	pos  int
}

func (g *nestGen) n(k int) int {
	if k <= 1 || g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % k
}

// genReg is one register of a generated program: a dense base array the
// operand views are cut from.
type genReg struct {
	id     bytecode.RegID
	dt     tensor.DType
	live   bool
	views  []tensor.View // every view used so far
	writes []tensor.View // result views used so far (injective)
}

type genProgram struct {
	prog   *bytecode.Program
	inputs map[bytecode.RegID]tensor.Tensor
	shared map[bytecode.RegID]bytecode.RegID // bound to the buffer bound to an input
}

// program decodes the stream into a valid program: rank 1-4 iteration
// shapes, operands with random offsets, positive, negative and non-unit
// steps, transposed axes, broadcast (stride-0 and extent-1) inputs,
// overlapping read windows, in-place chains (views are reused with
// probability 1/2), casts, any of the six dtypes, and now and then
// temporaries freed right after their last use.
func (g *nestGen) program() genProgram {
	dts := [2]tensor.DType{nestDTypes[g.n(len(nestDTypes))], nestDTypes[g.n(len(nestDTypes))]}
	rank := 1 + g.n(4)
	shape := make(tensor.Shape, rank)
	big := rank <= 2 && g.n(6) == 0
	for d := range shape {
		shape[d] = 1 + g.n(5)
	}
	if big {
		// One run longer than fusedBlockSize: blocks within a row.
		shape[rank-1] = fusedBlockSize + 1 + g.n(300)
	}
	base := make(tensor.Shape, rank)
	maxExt := 0
	for _, e := range shape {
		maxExt = max(maxExt, e)
	}
	for d := range base {
		base[d] = 2*shape[d] + 2
		if !big {
			base[d] = 2*maxExt + 2 // cubic: any axis permutation fits
		}
	}
	baseStrides := tensor.ContiguousStrides(base)

	p := bytecode.NewProgram()
	out := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}}
	var regs []*genReg
	addReg := func(dt tensor.DType, input bool) {
		r := &genReg{id: p.NewReg(dt, base.Size()), dt: dt, live: input}
		regs = append(regs, r)
		if !input {
			return
		}
		p.MarkInput(r.id)
		t := tensor.MustNew(dt, base)
		seed := uint64(len(regs))*7919 + uint64(g.n(256))
		for i := 0; i < t.Buf.Len(); i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			v := float64(int64(seed>>59)) - 8 // [-8, 24)
			switch {
			case dt == tensor.Bool:
				v = float64(seed >> 63)
			case dt == tensor.Uint8:
				v = float64(seed >> 58)
			case dt.IsFloat():
				v += float64(seed>>40&3) * 0.25
			}
			t.Buf.Set(i, v)
		}
		out.inputs[r.id] = t
	}
	addReg(dts[0], true)
	addReg(dts[0], true)
	addReg(dts[1], true)
	addReg(dts[0], false)
	addReg(dts[1], false)

	// view cuts a window of the iteration shape out of a register's base.
	view := func(r *genReg, result bool) tensor.View {
		pool := r.views
		if result {
			pool = r.writes
		}
		if len(pool) > 0 && g.n(2) == 0 {
			return pool[g.n(len(pool))]
		}
		perm := make([]int, rank)
		for d := range perm {
			perm[d] = d
		}
		if !big && g.n(3) == 0 {
			for d := rank - 1; d > 0; d-- {
				k := g.n(d + 1)
				perm[d], perm[k] = perm[k], perm[d]
			}
		}
		v := tensor.View{Shape: shape.Clone(), Strides: make([]int, rank)}
		for d, ext := range shape {
			room, bs := base[perm[d]], baseStrides[perm[d]]
			mode := g.n(7)
			if result && mode >= 5 {
				mode = 0
			}
			step := [...]int{1, 1, 2, -1, -2, 0, 1}[mode]
			span := (ext - 1) * max(step, -step)
			start := g.n(room - span)
			if step < 0 {
				start += span
			}
			if mode == 6 {
				v.Shape[d] = 1 // broadcast by extent
			}
			v.Offset += start * bs
			v.Strides[d] = step * bs
		}
		r.views = append(r.views, v)
		if result {
			r.writes = append(r.writes, v)
		}
		return v
	}
	pick := func(dt tensor.DType, live bool) *genReg {
		var cand []*genReg
		for _, r := range regs {
			if r.dt == dt && (r.live || !live) {
				cand = append(cand, r)
			}
		}
		return cand[g.n(len(cand))]
	}
	operand := func(dt tensor.DType) bytecode.Operand {
		if g.n(4) == 0 {
			c := []float64{0, 1, 2, 3, 1.5, 0.1, -2, 255}[g.n(8)]
			return bytecode.Const(bytecode.ConstOf(dt, c))
		}
		r := pick(dt, true)
		return bytecode.Reg(r.id, view(r, false))
	}

	unary := []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpNegative, bytecode.OpAbsolute, bytecode.OpTanh, bytecode.OpSign}
	binary := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpDivide,
		bytecode.OpMaximum, bytecode.OpMinimum, bytecode.OpPower, bytecode.OpMod, bytecode.OpArctan2}
	logical := []bytecode.Opcode{bytecode.OpLogicalAnd, bytecode.OpLogicalXor, bytecode.OpEqual, bytecode.OpLess}
	for n := 1 + g.n(8); n > 0; n-- {
		dt := dts[g.n(2)]
		dst := pick(dt, false)
		// Inputs first: the result view may then reuse one of theirs.
		switch kind := g.n(6); {
		case kind == 0 && dts[0] != dts[1]: // cast from the other dtype
			src := pick(dts[0], true)
			if dt == dts[0] {
				src = pick(dts[1], true)
			}
			in := bytecode.Reg(src.id, view(src, false))
			p.EmitIdentity(bytecode.Reg(dst.id, view(dst, true)), in)
		case kind <= 2:
			in := operand(dt)
			p.EmitUnary(unary[g.n(len(unary))], bytecode.Reg(dst.id, view(dst, true)), in)
		default:
			ops := binary
			if dt == tensor.Bool && g.n(2) == 0 {
				ops = logical
			}
			a, b := operand(dt), operand(dt)
			p.EmitBinary(ops[g.n(len(ops))], bytecode.Reg(dst.id, view(dst, true)), a, b)
		}
		dst.live = true
	}
	// Now and then the temporaries are freed right after their last use,
	// as a front end that frees as it goes records them: BH_FREEs inside
	// clusters. The draw comes last, so shorter corpus entries decode as
	// before.
	if g.n(4) == 3 {
		for _, r := range regs[3:] {
			if last := lastReference(p, r.id); last >= 0 {
				p.Instrs = slices.Insert(p.Instrs, last+1,
					bytecode.Instruction{Op: bytecode.OpFree, Out: bytecode.Reg(r.id, tensor.NewView(base))})
			}
		}
	}
	return out
}

// lastReference is the index of p's last instruction naming r, or -1.
func lastReference(p *bytecode.Program, r bytecode.RegID) int {
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		for _, o := range operands(&p.Instrs[i]) {
			if o.IsReg() && o.Reg == r {
				return i
			}
		}
	}
	return -1
}

// update decodes the stream into a translated-window update program, the
// shape a lazy front end emits for u[interior] = f(shifted u): a chain
// into a temporary over windows of one register that are pure
// translations of each other (rank 1-3; negative, positive and diagonal
// shifts on every axis; unit and non-unit steps; optionally a row longer
// than fusedBlockSize), closed by a write through the unshifted window —
// a BH_IDENTITY of the temporary, a computing step or a constant — and
// usually a BH_FREE of the temporary. One draw in four spoils one property the
// lagged store needs (a reversed or differently strided read window, an
// earlier write through another window, a BH_SYNC of the temporary), so
// the declined shapes stay under the same differential.
func (g *nestGen) update() genProgram {
	dt := nestDTypes[g.n(len(nestDTypes))]
	rank := 1 + g.n(3)
	shape := make(tensor.Shape, rank)
	for d := range shape {
		shape[d] = 1 + g.n(6)
	}
	if rank <= 2 && g.n(5) == 0 {
		shape[rank-1] = fusedBlockSize + 1 + g.n(300)
	}
	lo, step, base := make([]int, rank), make([]int, rank), make(tensor.Shape, rank)
	hi := make([]int, rank)
	for d := range shape {
		lo[d], hi[d], step[d] = g.n(3), g.n(3), 1+g.n(2)
		if d == rank-1 && lo[d]+hi[d] == 0 {
			lo[d] = 1 // some shift is always possible
		}
		base[d] = (shape[d]-1)*(step[d]+1) + 1 + lo[d] + hi[d] // room for one window of step+1
	}
	p := bytecode.NewProgram()
	tmp := p.NewReg(dt, shape.Size()) // register 0: the id a constant operand's zero value names
	grid := p.NewReg(dt, base.Size())
	p.MarkInput(grid)
	in := tensor.MustNew(dt, base)
	for i, salt := 0, g.n(5); i < in.Buf.Len(); i++ {
		in.Buf.Set(i, float64((i*7+salt)%11)*0.5)
	}
	// window cuts the iteration shape out of the grid, shifted by a draw
	// from [-lo, hi] on every axis; spoil reverses or restrides one axis.
	window := func(shifted bool, spoil int) bytecode.Operand {
		v := tensor.NewView(base)
		for d := range shape {
			start, st := lo[d], step[d]
			if shifted {
				start += g.n(lo[d]+hi[d]+1) - lo[d]
			}
			stop := start + (shape[d]-1)*st + 1
			switch {
			case d != rank-1 || spoil == 0:
			case spoil == 1:
				start, stop, st = stop-1, start-1, -st
			default:
				st++
				start, stop = lo[d], lo[d]+(shape[d]-1)*st+1
			}
			v, _ = v.Slice(d, start, stop, st)
		}
		return bytecode.Reg(grid, v)
	}
	spoil := 0
	if g.n(4) == 0 {
		spoil = 1 + g.n(4)
	}
	center, t := window(false, 0), bytecode.Reg(tmp, tensor.NewView(shape))
	ops := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpMaximum, bytecode.OpMinimum}
	if spoil == 3 {
		p.EmitIdentity(window(true, 0), bytecode.Const(bytecode.ConstOf(dt, 1)))
	}
	p.EmitBinary(ops[g.n(len(ops))], t, center, window(true, min(spoil, 2)%3))
	for n := g.n(4); n > 0; n-- {
		p.EmitBinary(ops[g.n(len(ops))], t, t, window(true, 0))
	}
	if g.n(2) == 0 {
		p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Const(bytecode.ConstOf(dt, 0.5)))
	}
	// The constant draw comes last, so shorter corpus entries decode as before.
	closing, freed, constant := g.n(4), g.n(4) != 0, g.n(6) == 1
	switch {
	case constant:
		p.EmitIdentity(center, bytecode.Const(bytecode.ConstOf(dt, 3)))
	case closing == 0:
		p.EmitBinary(bytecode.OpAdd, center, t, bytecode.Const(bytecode.ConstOf(dt, 1)))
	default:
		p.EmitIdentity(center, t)
	}
	if spoil == 4 {
		p.EmitSync(t)
	}
	if freed {
		p.EmitFree(t)
	}
	p.EmitSync(bytecode.Reg(grid, tensor.NewView(base)))
	return genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{grid: in}}
}

// nestRun executes gp on a fresh machine — through Plan.Execute, or
// instruction by instruction through the reference interpreter
// (refInterpret: the accessor interpreter and reduce/scan engine) — and
// returns the machine for register inspection; the test's cleanup closes
// it.
func nestRun(t testing.TB, gp genProgram, cfg Config, interpreter bool) *Machine {
	t.Helper()
	m := genRun(t, gp, cfg, interpreter)
	t.Cleanup(m.Close)
	return m
}

// genRun is nestRun for a machine the caller closes.
func genRun(t testing.TB, gp genProgram, cfg Config, interpreter bool) *Machine {
	t.Helper()
	m := New(cfg)
	bindGen(m, gp)
	p := gp.prog.Clone()
	var err error
	if interpreter {
		m.regs.grow(len(p.Regs))
		err = m.refInterpret(p, 0, len(p.Instrs), p.Constants())
	} else {
		err = m.Run(p)
	}
	if err != nil {
		t.Fatalf("run (%+v, interpreter=%v): %v\n%s", cfg, interpreter, err, gp.prog)
	}
	return m
}

// bindGen binds copies of gp's inputs to m.
func bindGen(m *Machine, gp genProgram) {
	bound := map[bytecode.RegID]tensor.Tensor{}
	for r, in := range gp.inputs {
		bound[r] = cloneTensor(in)
		m.Bind(r, bound[r])
	}
	for r, src := range gp.shared {
		m.Bind(r, bound[src])
	}
}

func cloneTensor(t tensor.Tensor) tensor.Tensor {
	return tensor.Tensor{Buf: t.Buf.Clone(), View: t.View}
}

// sameRegisters fails unless every register of got holds exactly want's
// bits (NaNs compare equal to NaNs).
func sameRegisters(t testing.TB, what string, p *bytecode.Program, want, got *Machine) {
	t.Helper()
	for r := range p.Regs {
		wb, gb := want.regs.get(bytecode.RegID(r)), got.regs.get(bytecode.RegID(r))
		if (wb == nil) != (gb == nil) {
			t.Fatalf("%s: register a%d bound %v, want %v\n%s", what, r, gb != nil, wb != nil, p)
		}
		if wb == nil {
			continue
		}
		for i := 0; i < wb.Len(); i++ {
			w, g := wb.Get(i), gb.Get(i)
			if (math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g))) || wb.GetInt(i) != gb.GetInt(i) {
				t.Fatalf("%s: a%d[%d] = %v, interpreter has %v\n%s", what, r, i, g, w, p)
			}
		}
	}
}

// checkNestDifferential is the property: reference interpreter ≡ unfused
// ≡ fused, one worker ≡ many (with a threshold low enough that chunk
// boundaries fall mid-row, and worker counts that give one-row and sub-row
// chunks). A reduction or scan picks its strategy — and a float fold its
// order — by the threshold, so with one the reference runs at each
// threshold.
func checkNestDifferential(t testing.TB, gp genProgram) {
	t.Helper()
	if err := gp.prog.Validate(); err != nil {
		t.Fatalf("generator produced an invalid program: %v\n%s", err, gp.prog)
	}
	want := genRun(t, gp, Config{Workers: 1}, true)
	defer want.Close()
	want4 := want
	if slices.ContainsFunc(gp.prog.Instrs, func(in bytecode.Instruction) bool {
		return in.Op.Info().Kind == bytecode.KindReduction || in.Op.Info().Kind == bytecode.KindScan
	}) {
		want4 = genRun(t, gp, Config{Workers: 1, ParallelThreshold: 4}, true)
		defer want4.Close()
	}
	for _, cfg := range []Config{
		{Fusion: false, Workers: 1},
		{Fusion: true, Workers: 1},
		{Fusion: false, Workers: 3, ParallelThreshold: 4},
		{Fusion: true, Workers: 2, ParallelThreshold: 4},
		{Fusion: true, Workers: 3, ParallelThreshold: 4},
		{Fusion: true, Workers: 7, ParallelThreshold: 4},
	} {
		got, w := genRun(t, gp, cfg, false), want
		if cfg.ParallelThreshold == 4 {
			w = want4
		}
		sameRegisters(t, fmt.Sprintf("fusion=%v workers=%d", cfg.Fusion, cfg.Workers), gp.prog, w, got)
		got.Close()
	}
}

func TestNestDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 400
	if testing.Short() {
		n = 60
	}
	var freesInside [2]int // programs, folds with a BH_FREE inside a fused nest
	var kinds mixedKinds
	for i := 0; i < n; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		for j, gp := range []genProgram{(&nestGen{data: data}).program(), (&nestGen{data: data}).reduce()} {
			checkNestDifferential(t, gp)
			if freeInsideNest(t, gp) {
				freesInside[j]++
			}
		}
		checkNestDifferential(t, (&nestGen{data: data}).update())
		checkNestDifferential(t, (&nestGen{data: data}).standalone())
		gp := (&nestGen{data: data}).mixed()
		checkNestDifferential(t, gp)
		kinds.add(t, gp)
	}
	t.Logf("BH_FREE inside a fused nest: %d generated programs, %d folds", freesInside[0], freesInside[1])
	if freesInside[0] == 0 || freesInside[1] == 0 {
		t.Errorf("BH_FREE inside a fused nest in %d generated programs and %d folds, want some of each", freesInside[0], freesInside[1])
	}
	t.Logf("steps the accessor interpreter ran before: %+v", kinds)
	if kinds.generators == 0 || kinds.promoted == 0 || kinds.serial == 0 || kinds.snapshots == 0 || kinds.otherDType == 0 || kinds.epilogues == 0 || kinds.sharedFused == 0 {
		t.Errorf("generated %+v: want some of each", kinds)
	}
}

// freeInsideNest reports whether gp's fused plan runs a BH_FREE inside a
// nest.
func freeInsideNest(t *testing.T, gp genProgram) bool {
	t.Helper()
	m := New(Config{Fusion: true})
	defer m.Close()
	pl, err := m.Compile(gp.prog)
	if err != nil {
		t.Fatal(err)
	}
	return slices.ContainsFunc(pl.clusters, func(ns nest) bool { return ns.steps != nil && len(ns.steps) < ns.end-ns.start })
}

func FuzzNestDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// Translated-window updates, as nestGen.update decodes them: the 2-D
	// five-point float64 stencil (freed temporary: its rows are the ring);
	// a 1-D float32 Jacobi row longer than fusedBlockSize; a 3-D int32
	// update with diagonal shifts and an innermost step of 2; a computing
	// closing write over a live temporary (a ring of its own); a reversed
	// read window (declined: two sweeps); the first again, closed by a
	// constant while the temporary (register 0) stays virtual.
	f.Add([]byte{0, 1, 5, 5, 1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 3, 0, 2, 1, 0, 1, 0, 0, 1, 2, 0, 1, 1})
	f.Add([]byte{1, 0, 0, 0, 17, 1, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0, 1, 1})
	f.Add([]byte{3, 2, 2, 3, 4, 1, 1, 1, 1, 0, 0, 2, 1, 1, 3, 2, 0, 0, 0, 3, 2, 1, 2, 1, 0, 3, 1, 0, 2, 1, 2, 3})
	f.Add([]byte{0, 1, 3, 5, 2, 1, 1, 0, 1, 1, 0, 1, 3, 0, 0, 2, 0, 1, 0, 0})
	f.Add([]byte{0, 1, 2, 4, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1})
	f.Add([]byte{0, 1, 5, 5, 1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 3, 0, 2, 1, 0, 1, 0, 0, 1, 2, 0, 1, 1, 1})
	// Chains, as nestGen.chain decodes them: a float64 add chain of five
	// dense inputs folding t *= 0.2; a float32 multiply chain of nine (two
	// chain steps) whose division tail runs as a pass of its own; an int32
	// add chain over strided, reversed, broadcast and virtual inputs, then
	// t = t + t heading a second chain, in a row longer than
	// fusedBlockSize; a uint8 chain a mid-chain constant closes; a bool
	// chain and a materialized accumulator, both declined.
	f.Add([]byte{0, 0, 3, 2, 6, 0, 0, 0, 0, 0, 4, 0, 1, 1, 1})
	f.Add([]byte{1, 1, 7, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2, 1, 1, 1})
	f.Add([]byte{3, 0, 5, 0, 4, 1, 2, 3, 4, 5, 0, 2, 1, 1, 1, 1, 0, 0, 100})
	f.Add([]byte{4, 1, 4, 2, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 1, 1})
	f.Add([]byte{5, 0, 3, 1, 2, 0, 0, 0, 0, 0, 2, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 3, 2, 6, 0, 0, 0, 0, 0, 4, 0, 1, 0, 1})
	// Folds, as nestGen.reduce decodes them: a float64 add chain over
	// strided, reversed and broadcast inputs summed along 8 193 elements
	// (chunk-axis); float32 argmin over 130 rows of 33 (split-outputs); an
	// int32 max over axis 0 into a reversed output; float64 argmax of a
	// square root's NaNs (chunk-axis); a bool logical-or of a broadcast
	// producer; a uint8 sum of a live producer into float32; a sum whose
	// output shares its producer's input buffer (two sweeps); an int64
	// product over lines of one element after a chain.
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 2, 3, 5, 0, 0, 0, 1, 4, 7, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 1, 0, 0, 5, 2, 32, 0, 0, 1, 1, 0, 0, 3, 1, 0, 1, 1, 1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 6, 1, 1})
	f.Add([]byte{3, 1, 0, 3, 2, 0, 0, 0, 1, 0, 3, 2, 2, 1, 0, 1, 3, 0, 2, 3, 1, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 7, 1, 1})
	f.Add([]byte{5, 1, 1, 2, 3, 0, 0, 0, 0, 4, 3, 5, 2, 1, 1, 0, 1, 0, 0, 0, 0, 0, 5, 1, 1, 1})
	f.Add([]byte{4, 1, 1, 3, 3, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 2, 1, 1, 0, 3, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 1, 1, 0, 4})
	f.Add([]byte{2, 1, 1, 3, 0, 1, 0, 0, 1, 1, 3, 0, 0, 0, 0, 1, 2, 1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1})
	// Lone folds and scans, as nestGen.standalone decodes them: a product
	// scan of another reduction's output; an argmin into an output declared
	// of another dtype but bound to its input's buffer; a product over an
	// empty axis of a cast (the identity fill); a scan into its input's
	// buffer one element ahead (element by element); an argmax of a cast
	// over strided and reversed windows; a chunked float64 cumsum of a
	// broadcast input (the three-pass scan).
	f.Add([]byte{4, 6, 3, 1, 5, 1, 1, 1, 3, 1, 8, 3, 4, 9, 1, 5, 2, 5, 2, 0})
	f.Add([]byte{6, 5, 5, 7, 8, 8, 0, 5, 7, 1, 0, 4, 7, 5, 8, 7, 9, 0, 6, 1})
	f.Add([]byte{9, 4, 1, 5, 2, 5, 6, 2, 2, 8, 5, 9, 4, 6, 5, 1, 9, 0, 2, 1})
	f.Add([]byte{8, 6, 9, 6, 7, 7, 0, 5, 0, 6, 6, 9, 8, 0, 0, 4, 4, 7, 1, 6})
	f.Add([]byte{7, 5, 7, 1, 1, 5, 5, 7, 6, 7, 0, 7, 3, 2, 3, 1, 2, 3, 7, 1})
	f.Add([]byte{0, 6, 3, 7, 3, 9, 1, 4, 4, 3, 8, 8, 9, 8, 7, 8, 2, 0, 6, 8})
	// Steps the accessor interpreter ran before, as nestGen.mixed decodes
	// them: BH_RANDOMs into bool and float64 beside a float64 BH_TANH into
	// bool and a float comparison of constants, summed over axis 0 of a 4×4
	// window; a cast of an int32 register bound to a float64 buffer, a
	// reversed BH_RANGE into uint8 and a comparison of it into bool folded
	// by a logical or; a float64 BH_ADD through a stride-0 window reading
	// its own register, over rows longer than fusedBlockSize; a BH_RANGE
	// into int32 and a negation of a constant folded by a max over the last
	// axis of a strided window; a BH_ARCTAN2 into a register bound to its
	// input's buffer one element ahead (a snapshot), after a BH_RANGE
	// through a stride-0 window; a comparison of uint8 into bool beside a
	// BH_FLOOR of a broadcast uint8 into int32 and a summed BH_RANDOM.
	f.Add([]byte{29, 53, 38, 33, 6, 45, 16, 42, 23, 50, 3, 10, 54, 32, 49, 13, 34, 46, 33, 29, 53, 16, 50, 19, 21, 30, 12, 36, 49, 0, 7, 37, 35, 9, 7, 45, 42, 44, 37, 51, 11, 13, 23, 19})
	f.Add([]byte{8, 46, 4, 33, 46, 6, 47, 14, 23, 21, 0, 37, 26, 25, 29, 41, 19, 58, 25, 10, 8, 3, 14, 15, 30, 26, 49, 56, 15, 35, 59, 7, 20, 42, 31, 2, 6, 35, 45, 37, 8, 58, 10, 55, 37, 1, 10})
	f.Add([]byte{40, 49, 0, 29, 18, 2, 41, 58, 51, 35, 26, 9, 52, 41, 20, 3, 56, 8, 23, 57, 3, 32, 16, 7, 41, 53, 14, 42, 57, 27, 54, 49, 45, 57, 10, 53, 58, 10, 17, 2, 45, 25, 26, 57, 18, 49, 2, 4})
	f.Add([]byte{1, 30, 10, 45, 40, 38, 14, 12, 19, 36, 21, 53, 56, 10, 20, 8, 55, 27, 56, 24, 11, 58, 46, 30, 20, 28, 36, 14, 26, 51, 57, 35, 59, 27, 53, 49, 12, 57, 20, 40, 3, 40, 52, 0, 4, 1, 56, 59, 21, 48, 56, 47, 1})
	f.Add([]byte{41, 4, 34, 58, 48, 55, 23, 49, 41, 52, 57, 23, 6, 53, 32, 5, 54, 43, 38, 31, 38, 32, 53, 27, 49, 33, 9, 47, 31, 34, 11, 45, 46, 11, 22, 54, 34, 16, 40, 57, 10, 8, 27, 2, 34, 16, 55, 59, 12, 49, 35})
	f.Add([]byte{23, 2, 54, 19, 1, 39, 40, 16, 38, 15, 27, 10, 7, 46, 44, 15, 38, 49, 3, 31, 43, 25, 41, 16, 15, 57, 55, 40, 49, 1, 49, 8, 0, 37, 55, 58, 12, 52, 16, 21, 22})
	// Two registers of a fused cluster bound to one buffer, which the plan
	// runs unfused: a reversed BH_ADD over rows longer than fusedBlockSize
	// into a register bound to its input's buffer one element behind its
	// reads, then a multiply of it by 1; a BH_SUBTRACT the same way one
	// element ahead, in one cluster with two reversed BH_RANDOMs.
	f.Add([]byte{50, 6, 42, 47, 49, 40, 49, 26, 59, 10, 15, 19, 40, 16, 0, 23, 33, 51, 49, 16, 57, 7, 4, 14, 26, 41, 58, 7, 56, 1, 5, 53, 54, 58, 28, 14, 12, 40, 48, 50, 27, 44})
	f.Add([]byte{4, 38, 20, 20, 28, 27, 57, 56, 24, 29, 11, 11, 4, 8, 2, 56, 37, 46, 19, 47, 21, 14, 2, 15, 34, 34, 8, 27, 0, 1, 9, 20, 6, 19, 10, 7, 0, 42, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip()
		}
		// Each program's plan then runs under a vector drawn from the rest
		// of the stream.
		for _, gen := range []func(*nestGen) genProgram{(*nestGen).program, (*nestGen).update, (*nestGen).chain, (*nestGen).reduce, (*nestGen).standalone, (*nestGen).mixed} {
			g := &nestGen{data: data}
			gp := gen(g)
			checkNestDifferential(t, gp)
			checkRebind(t, gp, g.constants(gp.prog))
		}
	})
}

// stencilBatch is the benchmark's stencil-sweep batch on an n×n grid: a
// 5-instruction strided chain over the interior windows into a temporary,
// the BH_IDENTITY write-back through the centre window — one row behind
// the north window, one ahead of the south — and the temporary's BH_FREE.
func stencilBatch(n int) (genProgram, bytecode.RegID) {
	p := bytecode.NewProgram()
	grid := p.NewReg(tensor.Float64, n*n)
	next := p.NewReg(tensor.Float64, (n-2)*(n-2))
	p.MarkInput(grid)
	full := tensor.NewView(tensor.MustShape(n, n))
	window := func(r0, c0 int) bytecode.Operand {
		v, _ := full.Slice(0, r0, r0+n-2, 1)
		v, _ = v.Slice(1, c0, c0+n-2, 1)
		return bytecode.Reg(grid, v)
	}
	center, tmp := window(1, 1), bytecode.Reg(next, tensor.NewView(tensor.MustShape(n-2, n-2)))
	p.EmitBinary(bytecode.OpAdd, tmp, center, window(0, 1))
	p.EmitBinary(bytecode.OpAdd, tmp, tmp, window(2, 1))
	p.EmitBinary(bytecode.OpAdd, tmp, tmp, window(1, 0))
	p.EmitBinary(bytecode.OpAdd, tmp, tmp, window(1, 2))
	p.EmitBinary(bytecode.OpMultiply, tmp, tmp, bytecode.Const(bytecode.ConstFloat(0.2)))
	p.EmitIdentity(center, tmp)
	p.EmitFree(tmp)
	p.EmitSync(bytecode.Reg(grid, full))
	in := tensor.MustNew(tensor.Float64, tensor.MustShape(n, n))
	in.FillRandom(16, 0, 100)
	return genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{grid: in}}, grid
}

func TestNestStencilBatch(t *testing.T) {
	const n = 70
	gp, grid := stencilBatch(n)
	checkNestDifferential(t, gp)

	m := nestRun(t, gp, Config{Fusion: true, Workers: 2, ParallelThreshold: 64}, false)
	st := m.Stats()
	if st.Sweeps != 1 || st.FusedInstructions != 6 || st.Instructions != 6 || st.ChainedInstructions != 5 {
		t.Errorf("stencil batch ran as %d sweeps, %d fused (%d chained) of %d instructions; want 1, 6 (5) of 6",
			st.Sweeps, st.FusedInstructions, st.ChainedInstructions, st.Instructions)
	}
	if st.BuffersAllocated != 0 || st.PoolHits != 0 {
		t.Errorf("the freed temporary was materialized: %d buffers allocated, %d pool hits", st.BuffersAllocated, st.PoolHits)
	}
	pl, err := m.Compile(gp.prog)
	if err != nil {
		t.Fatal(err)
	}
	if lag := pl.clusters[0].lag; lag == nil || !lag.alias || lag.ring != 2 || lag.hold != 2 || lag.blk != n-2 {
		t.Errorf("write-back lag %+v: want the temporary's rows as a 2-slot ring (one row of lag) plus 2 hold slots", lag)
	}
	// Against plain Go, in the recorded operation order.
	src := gp.inputs[grid].Buf
	check := func(got tensor.Buffer, scale float64) {
		t.Helper()
		for r := 1; r < n-1; r++ {
			for c := 1; c < n-1; c++ {
				i := r*n + c
				want := ((((src.Get(i) + src.Get(i-n)) + src.Get(i+n)) + src.Get(i-1)) + src.Get(i+1)) * scale
				if got.Get(i) != want {
					t.Fatalf("scale %v: grid[%d,%d] = %v, want %v", scale, r, c, got.Get(i), want)
				}
			}
		}
	}
	check(m.regs.get(grid), 0.2)
	// The one plan runs under another scale, then under its own again.
	for _, tc := range []struct {
		consts []bytecode.Constant
		scale  float64
	}{{[]bytecode.Constant{bytecode.ConstFloat(0.5)}, 0.5}, {nil, 0.2}} {
		in := cloneTensor(gp.inputs[grid])
		m.Bind(grid, in)
		if err := pl.Execute(m, tc.consts); err != nil {
			t.Fatal(err)
		}
		check(in.Buf, tc.scale)
	}
}

func TestNestTransposedCluster(t *testing.T) {
	// y = (xᵀ + zᵀ) * xᵀ, written through a transposed window of y: every
	// operand's innermost stride is the row length, so each run is
	// gathered and the result scattered.
	const rows, cols = 37, 53
	p := bytecode.NewProgram()
	x := p.NewReg(tensor.Float32, rows*cols)
	z := p.NewReg(tensor.Float32, rows*cols)
	y := p.NewReg(tensor.Float32, rows*cols)
	p.MarkInput(x)
	p.MarkInput(z)
	tr := tensor.NewView(tensor.MustShape(rows, cols)).Transpose()
	yt := tensor.NewView(tensor.MustShape(cols, rows)) // dense result of the same shape
	p.EmitBinary(bytecode.OpAdd, bytecode.Reg(y, yt), bytecode.Reg(x, tr), bytecode.Reg(z, tr))
	p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(y, yt), bytecode.Reg(y, yt), bytecode.Reg(x, tr))
	p.EmitUnary(bytecode.OpTanh, bytecode.Reg(x, tr), bytecode.Reg(y, yt))
	p.EmitSync(bytecode.Reg(y, yt))
	gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}}
	for i, r := range []bytecode.RegID{x, z} {
		in := tensor.MustNew(tensor.Float32, tensor.MustShape(rows, cols))
		in.FillRandom(uint64(31+i), -2, 2)
		gp.inputs[r] = in
	}
	checkNestDifferential(t, gp)
	m := nestRun(t, gp, Config{Fusion: true}, false)
	if st := m.Stats(); st.Sweeps != 1 || st.FusedInstructions != 3 {
		t.Errorf("transposed chain ran as %d sweeps with %d fused instructions, want 1 and 3", st.Sweeps, st.FusedInstructions)
	}
}

// TestNestWithConstants: a plan holds no constant value, so a parametric
// plan-cache hit under new constants returns the cached plan itself, and
// executing it under the new vector computes the new values while the
// plan's own stay its default. Each per-call choice a kernel makes on a
// constant's value — float32 ⊗ c native or widened, a chain tail folded or
// a pass of its own, integer narrowing, BH_RANDOM's seed and key — and
// generated lagged, fold and chain nests run one plan under two vectors,
// bit for bit as a fresh compile under each (checkRebind).
func TestNestWithConstants(t *testing.T) {
	build := func(scale, shift float64) *bytecode.Program {
		p := bytecode.NewProgram()
		a := p.NewReg(tensor.Float64, 100)
		p.MarkInput(a)
		v, _ := tensor.NewView(tensor.MustShape(100)).Slice(0, 1, 99, 2) // strided: a gathered run
		p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a, v), bytecode.Reg(a, v), bytecode.Const(bytecode.ConstFloat(scale)))
		p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a, v), bytecode.Reg(a, v), bytecode.Const(bytecode.ConstFloat(shift)))
		return p
	}
	m := New(Config{Fusion: true})
	defer m.Close()
	exec := func(pl *Plan, consts []bytecode.Constant) float64 {
		t.Helper()
		in := tensor.MustNew(tensor.Float64, tensor.MustShape(100))
		in.Fill(3)
		m.Bind(0, in)
		if err := pl.Execute(m, consts); err != nil {
			t.Fatal(err)
		}
		if in.Buf.Get(2) != 3 {
			t.Fatal("element outside the view was written")
		}
		return in.Buf.Get(1)
	}
	first := build(2, 1)
	pl, err := m.Compile(first)
	if err != nil {
		t.Fatal(err)
	}
	m.InsertPlan(first.Fingerprint(), first.Constants(), true, pl, nil)

	second := build(10, -4)
	hit, _, ok := m.LookupPlan(second.Fingerprint(), second.Constants(), nil)
	if !ok || hit != pl {
		t.Fatalf("parametric lookup: ok=%v, same plan=%v; want the cached plan", ok, hit == pl)
	}
	if got := exec(hit, second.Constants()); got != 3*10-4 {
		t.Errorf("the plan under the new vector computed %v, want %v", got, 3*10-4)
	}
	if got := exec(pl, nil); got != 3*2+1 {
		t.Errorf("the plan under its own vector computed %v after the new one, want %v", got, 3*2+1)
	}

	// Per-call choices, each under its plan's own vector and another.
	redraw := func(p *bytecode.Program, vals ...float64) []bytecode.Constant {
		consts := p.Constants()
		for i, v := range vals {
			consts[i] = bytecode.ConstOf(consts[i].DType, v)
		}
		return consts
	}
	listing := func(src string) genProgram {
		return genProgram{prog: bytecode.MustParse(src), inputs: map[bytecode.RegID]tensor.Tensor{}}
	}
	f32 := listing(`
.reg a0 float32 300
.reg a1 float32 300
BH_RANDOM a0 [0:300:1] 5 0
BH_MULTIPLY a1 [0:300:1] a0 [0:300:1] 0.5
BH_ADD a1 [0:300:1] a1 [0:300:1] 0.1
BH_SYNC a1
`)
	narrow := listing(`
.reg a0 int32 50
.reg a1 int32 50
.reg a2 uint8 50
.reg a3 uint8 50
BH_RANDOM a0 [0:50:1] 3 0
BH_MULTIPLY a1 [0:50:1] a0 [0:50:1] 3
BH_RANDOM a2 [0:50:1] 4 0
BH_ADD a3 [0:50:1] a2 [0:50:1] 7
BH_SYNC a1
BH_SYNC a3
`)
	tail := chainSpec{dt: tensor.Float32, op: bytecode.OpAdd, in: make([]int, 3), tail: bytecode.OpMultiply, c: 0.5, rows: 3, cols: 7}.program()
	for _, tc := range []struct {
		name string
		gp   genProgram
		vals []float64
	}{
		{"float32 ⊗ 0.1 and ⊗ 0.5 trade bodies", f32, []float64{5, 0, 0.1, 0.5}},
		{"BH_RANDOM seed and key", f32, []float64{9, 1 << 40}},
		{"int32 and uint8 constants that wrap", narrow, []float64{3, 0, 2654435761, 4, 0, 300}},
		{"chain tail NaN", tail, []float64{math.NaN()}},
		{"chain tail 0.1, no float32", tail, []float64{0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRebind(t, tc.gp, redraw(tc.gp.prog, tc.vals...))
		})
	}

	rng := rand.New(rand.NewSource(32))
	var lagged, folds, chains int
	for i := 0; i < 60; i++ {
		data := make([]byte, 128)
		rng.Read(data)
		for _, gen := range []func(*nestGen) genProgram{(*nestGen).update, (*nestGen).reduce, (*nestGen).chain} {
			g := &nestGen{data: data}
			gp := gen(g)
			pl := checkRebind(t, gp, g.constants(gp.prog))
			for i := range pl.clusters {
				ns := &pl.clusters[i]
				lagged += btoi(ns.lag != nil)
				folds += btoi(ns.line > 0)
				chains += btoi(ns.chained > 0)
			}
		}
	}
	if lagged == 0 || folds == 0 || chains == 0 {
		t.Errorf("rebound %d lagged, %d fold and %d chain nests: want each kind", lagged, folds, chains)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// redrawValues are what nestGen.constants draws: the generators' own
// constants, a NaN and a negative zero.
var redrawValues = []float64{0, 1, 2, 3, 1.5, 0.1, -2, 255, 0.2, 0.5, -3, math.Copysign(0, -1), math.NaN()}

// constants draws a new constant vector for p, of its dtypes, from the
// rest of the stream: the draw comes after the program's, so a stream
// decodes to the same program as without it.
func (g *nestGen) constants(p *bytecode.Program) []bytecode.Constant {
	consts := p.Constants()
	for i, c := range consts {
		consts[i] = bytecode.ConstOf(c.DType, redrawValues[g.n(len(redrawValues))])
	}
	return consts
}

// withConstants is p with its constant operands set to consts, in
// Program.Constants order: the batch a plan run under consts stands for.
func withConstants(p *bytecode.Program, consts []bytecode.Constant) *bytecode.Program {
	q := p.Clone()
	for i := range q.Instrs {
		for _, o := range [2]*bytecode.Operand{&q.Instrs[i].In1, &q.Instrs[i].In2} {
			if o.IsConst() {
				o.Const, consts = consts[0], consts[1:]
			}
		}
	}
	return q
}

// checkRebind compiles gp's program once and executes that one plan under
// consts, then under its own vector, each on a fresh machine, bit for bit
// as a fresh compile of the program under that vector and as the
// interpreter. It returns the plan.
func checkRebind(t testing.TB, gp genProgram, consts []bytecode.Constant) *Plan {
	t.Helper()
	cfg := Config{Fusion: true, Workers: 2, ParallelThreshold: 4}
	m := New(cfg)
	defer m.Close()
	pl, err := m.Compile(gp.prog.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range [][]bytecode.Constant{consts, nil} {
		fresh := gp
		if vec != nil {
			fresh.prog = withConstants(gp.prog, vec)
		}
		want := nestRun(t, fresh, cfg, false)
		oracle := nestRun(t, fresh, Config{Workers: 1, ParallelThreshold: cfg.ParallelThreshold}, true) // a float fold's order follows the threshold
		got := New(cfg)
		defer got.Close()
		bindGen(got, gp)
		if err := pl.Execute(got, vec); err != nil {
			t.Fatalf("plan under %v: %v\n%s", vec, err, fresh.prog)
		}
		sameRegisters(t, fmt.Sprintf("plan under %v", vec), fresh.prog, want, got)
		sameRegisters(t, fmt.Sprintf("plan under %v against the interpreter", vec), fresh.prog, oracle, got)
	}
	return pl
}

// TestPlanExecuteCompilesNothing: kernels are built by Compile; Execute
// only binds buffers. The same *Plan also executes on two machines at
// once (run under -race), and a parametric plan-cache hit under a new
// constant vector runs the cached plan, building nothing either.
func TestPlanExecuteCompilesNothing(t *testing.T) {
	gp, grid := stencilBatch(40)
	// A cast and two reduction epilogues, a value fold and an index fold,
	// ride along: their run kernels are built by Compile too.
	p := gp.prog
	sum, at := p.NewReg(tensor.Float64, 1), p.NewReg(tensor.Int64, 1)
	narrow := p.NewReg(tensor.Float32, 40*40)
	full, one := tensor.NewView(tensor.MustShape(40*40)), tensor.NewView(tensor.MustShape(1))
	p.EmitIdentity(bytecode.Reg(narrow, full), bytecode.Reg(grid, full))
	p.EmitUnary(bytecode.OpAbsolute, bytecode.Reg(narrow, full), bytecode.Reg(narrow, full))
	p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(sum, one), bytecode.Reg(narrow, full), 0)
	p.EmitUnary(bytecode.OpNegative, bytecode.Reg(narrow, full), bytecode.Reg(narrow, full))
	p.EmitReduce(bytecode.OpArgmaxReduce, bytecode.Reg(at, one), bytecode.Reg(narrow, full), 0)

	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	compiler := eng.NewMachine(Config{Fusion: true})
	defer compiler.Close()
	pl, err := compiler.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	compiled := kernelCompilations.Load()
	if compiled == 0 {
		t.Fatal("Compile built no kernels")
	}

	var wg sync.WaitGroup
	results := make([]tensor.Buffer, 2)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := eng.NewMachine(Config{Fusion: true, Workers: 2, ParallelThreshold: 64})
			defer m.Close()
			in := cloneTensor(gp.inputs[grid])
			m.Bind(grid, in)
			for run := 0; run < 2; run++ {
				if err := pl.Execute(m, nil); err != nil {
					t.Error(err)
					return
				}
			}
			if st := m.Stats(); st.FusedReductions != 4 {
				t.Errorf("%d fused reductions in two executions, want 4", st.FusedReductions)
			}
			results[i] = in.Buf
		}()
	}
	wg.Wait()
	if got := kernelCompilations.Load(); got != compiled {
		t.Errorf("executing a compiled plan built %d kernels, want 0", got-compiled)
	}
	if results[0] == nil || results[1] == nil {
		t.FailNow()
	}
	for i := 0; i < results[0].Len(); i++ {
		if results[0].Get(i) != results[1].Get(i) {
			t.Fatalf("concurrent executions of one plan diverge at %d: %v vs %v", i, results[0].Get(i), results[1].Get(i))
		}
	}

	compiler.InsertPlan(p.Fingerprint(), p.Constants(), true, pl, nil)
	scaled := []bytecode.Constant{bytecode.ConstFloat(0.25)}
	hit, _, ok := compiler.LookupPlan(p.Fingerprint(), scaled, nil)
	if !ok || hit != pl {
		t.Fatalf("parametric hit under a new vector: ok=%v, the cached plan=%v", ok, hit == pl)
	}
	compiler.Bind(grid, cloneTensor(gp.inputs[grid]))
	if err := hit.Execute(compiler, scaled); err != nil {
		t.Fatal(err)
	}
	if got := kernelCompilations.Load(); got != compiled {
		t.Errorf("a parametric hit under a new vector built %d kernels, want 0", got-compiled)
	}
}

// TestNestFreeMidCluster: a batch that frees each temporary right after
// its last use fuses as the same batch with its frees at the end — the
// BH_RANDOM, the producers and the sum in one sweep, every temporary
// virtual, only the sum materialized — and stays bit-equal to the
// interpreter. A register written again after its BH_FREE, the reduction's
// result included, ends the cluster at the free.
func TestNestFreeMidCluster(t *testing.T) {
	const decl = `
.reg a0 float64 4096
.reg a1 float64 4096
.reg a2 float64 4096
.reg a3 float64 4096
.reg a4 float64 1
BH_RANDOM a0 [0:4096:1] 7 0
`
	asYouGo := decl + `
BH_MULTIPLY a1 [0:4096:1] a0 [0:4096:1] a0 [0:4096:1]
BH_FREE a0
BH_ADD a2 [0:4096:1] a1 [0:4096:1] 1
BH_FREE a1
BH_SQRT a3 [0:4096:1] a2 [0:4096:1]
BH_FREE a2
BH_ADD_REDUCE a4 [0:1:1] a3 [0:4096:1] axis=0
BH_FREE a3
BH_SYNC a4
`
	atEnd := decl + `
BH_MULTIPLY a1 [0:4096:1] a0 [0:4096:1] a0 [0:4096:1]
BH_ADD a2 [0:4096:1] a1 [0:4096:1] 1
BH_SQRT a3 [0:4096:1] a2 [0:4096:1]
BH_ADD_REDUCE a4 [0:1:1] a3 [0:4096:1] axis=0
BH_FREE a0
BH_FREE a1
BH_FREE a2
BH_FREE a3
BH_SYNC a4
`
	reuse := decl + `
BH_MULTIPLY a1 [0:4096:1] a0 [0:4096:1] a0 [0:4096:1]
BH_ADD a2 [0:4096:1] a1 [0:4096:1] a0 [0:4096:1]
BH_FREE a1
BH_MULTIPLY a1 [0:4096:1] a2 [0:4096:1] 2
BH_ADD a3 [0:4096:1] a1 [0:4096:1] a2 [0:4096:1]
BH_FREE a2
BH_ADD_REDUCE a4 [0:1:1] a3 [0:4096:1] axis=0
BH_FREE a3
BH_SYNC a4
`
	sumFreed := decl + `
BH_IDENTITY a4 [0:1:1] 0
BH_MULTIPLY a1 [0:4096:1] a0 [0:4096:1] a0 [0:4096:1]
BH_FREE a4
BH_ADD_REDUCE a4 [0:1:1] a1 [0:4096:1] axis=0
BH_FREE a1
BH_SYNC a4
`
	var sums []uint64
	for _, tc := range []struct {
		name, src                                string
		sweeps, fused, reductions, buffers, free int
	}{
		{"free as you go", asYouGo, 1, 5, 1, 1, 3},
		{"free at the end", atEnd, 1, 5, 1, 1, 0},
		{"reuse after free", reuse, 2, 6, 1, 4, 1},
		{"free of the sum's register", sumFreed, 4, 0, 0, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gp := genProgram{prog: bytecode.MustParse(tc.src)}
			checkNestDifferential(t, gp)
			m := nestRun(t, gp, Config{Fusion: true}, false)
			st := m.Stats()
			if st.Sweeps != tc.sweeps || st.FusedInstructions != tc.fused || st.FusedReductions != tc.reductions || st.BuffersAllocated != tc.buffers {
				t.Errorf("%d sweeps, %d fused, %d fused reductions, %d buffers; want %d, %d, %d, %d",
					st.Sweeps, st.FusedInstructions, st.FusedReductions, st.BuffersAllocated, tc.sweeps, tc.fused, tc.reductions, tc.buffers)
			}
			pl, err := m.Compile(gp.prog)
			if err != nil {
				t.Fatal(err)
			}
			free := 0
			for _, ns := range pl.clusters {
				if ns.steps != nil {
					free += ns.end - ns.start - len(ns.steps)
				}
			}
			if free != tc.free {
				t.Errorf("%d BH_FREEs inside nests, want %d", free, tc.free)
			}
			sums = append(sums, math.Float64bits(m.regs.get(4).Get(0)))
		})
	}
	if sums[0] != sums[1] {
		t.Errorf("freeing as you go sums to %x, freeing at the end to %x", sums[0], sums[1])
	}
}

// TestNestAllocFailBeforeWorkers is the regression test for the race the
// strided engine had: workers assigned a shared error with no
// synchronisation. Registers now bind before any worker starts, so a
// failed allocation reports the same error for one worker and many, and
// -race stays quiet.
func TestNestAllocFailBeforeWorkers(t *testing.T) {
	var texts []string
	for _, workers := range []int{1, 4} {
		gp, _ := stencilBatch(70)
		gp.prog.Instrs = gp.prog.Instrs[:5] // no write-back, no BH_FREE: the temporary is live, hence materialized
		m := New(Config{Fusion: true, Workers: workers, ParallelThreshold: 16, FaultLabel: "victim"})
		for r, in := range gp.inputs {
			m.Bind(r, cloneTensor(in))
		}
		disarm := faultinject.Arm(faultinject.AllocFail, faultinject.Fault{Label: "victim", Times: 1, Msg: "scratch denied"})
		err := m.Run(gp.prog)
		disarm()
		m.Close()
		if err == nil {
			t.Fatalf("workers=%d: the strided cluster ran without its temporary", workers)
		}
		texts = append(texts, err.Error())
	}
	if texts[0] != texts[1] {
		t.Errorf("alloc failure reads differently by worker count:\n 1: %s\n 4: %s", texts[0], texts[1])
	}
	for _, want := range []string{"cluster [0,5)", "instr 0", "scratch denied"} {
		if !strings.Contains(texts[0], want) {
			t.Errorf("error %q does not mention %q", texts[0], want)
		}
	}
}

// TestCastNestMatchesAccessor pins the typed BH_IDENTITY cast kernels
// against the accessor path (Buffer.Get→Set, GetInt→SetInt) for every
// ordered pair of the six dtypes, over values that stress the
// conversions: NaN, ±Inf, negative zero, fractions, and magnitudes out of
// range for every integer width. Dense and strided, so the gather and
// scatter loops convert nothing on the side.
func TestCastNestMatchesAccessor(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.5, -2.75, 127, 128, 255, 256, -129, 300.7,
		math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, 1 << 40, -(1 << 40), 1e19, -1e19,
		math.MaxInt64, math.MinInt64, math.MaxFloat32, 1e300, -1e300, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 16777217, 9007199254740993}
	const n = 2 * 33
	for _, from := range nestDTypes {
		for _, to := range nestDTypes {
			for _, step := range []int{1, 2, -1} {
				p := bytecode.NewProgram()
				src := p.NewReg(from, n)
				dst := p.NewReg(to, n)
				p.MarkInput(src)
				v := tensor.NewView(tensor.MustShape(n))
				if step != 1 {
					start, stop := 0, n
					if step < 0 {
						start, stop = n-1, -1
					}
					v, _ = v.Slice(0, start, stop, step)
				}
				p.EmitIdentity(bytecode.Reg(dst, v), bytecode.Reg(src, v))
				in := tensor.MustNew(from, tensor.MustShape(n))
				for i := 0; i < n; i++ {
					val := special[i%len(special)]
					if from.IsFloat() {
						in.Buf.Set(i, val)
					} else if val == val && math.Abs(val) < 1e18 {
						in.Buf.SetInt(i, int64(val))
					}
				}
				gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{src: in}}

				m := New(Config{Fusion: true})
				pl, err := m.Compile(p)
				m.Close()
				if err != nil {
					t.Fatal(err)
				}
				if pl.clusters[0].steps == nil {
					t.Fatalf("%v→%v cast did not compile to a nest", from, to)
				}
				want := nestRun(t, gp, Config{Workers: 1}, true)
				got := nestRun(t, gp, Config{Fusion: true, Workers: 2, ParallelThreshold: 8}, false)
				sameRegisters(t, fmt.Sprintf("%v→%v step %d", from, to, step), p, want, got)
			}
		}
	}
}
