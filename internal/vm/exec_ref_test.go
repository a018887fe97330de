package vm

import (
	"fmt"
	"slices"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The accessor interpreter the VM ran before every elementwise byte-code
// became a nest step: one serial sweep per instruction, applying the
// scalar kernels through Buffer.Get/Set (float64 class) or GetInt/SetInt
// (exact int64 class) in lockstep row-major iterators. It defines the
// semantics of every dtype combination the nests are held against, bit for
// bit (refInterpret).

// execRef runs elementwise instruction in through the accessor
// interpreter; k holds in's constant operands, in order, at its front.
func (m *Machine) execRef(p *bytecode.Program, in *bytecode.Instruction, k []bytecode.Constant) error {
	switch in.Op {
	case bytecode.OpRange:
		return m.execRange(p, in)
	case bytecode.OpRandom:
		return m.execRandom(p, in, k)
	}
	return m.execElementwise(p, in, k)
}

// source is a resolved input operand: either a constant or a buffer with a
// view broadcast to the output shape.
type source struct {
	isConst bool
	cf      float64
	ci      int64
	buf     tensor.Buffer
	view    tensor.View
}

func (m *Machine) resolveSources(p *bytecode.Program, in *bytecode.Instruction, outShape tensor.Shape, k []bytecode.Constant) ([]source, error) {
	inputs := in.Inputs()
	srcs := make([]source, len(inputs))
	for i, opnd := range inputs {
		if opnd.IsConst() {
			srcs[i] = source{isConst: true, cf: k[0].Float(), ci: k[0].Int()}
			k = k[1:]
			continue
		}
		buf := m.regs.get(opnd.Reg)
		if buf == nil {
			return nil, fmt.Errorf("input register %s has no buffer", opnd.Reg)
		}
		view, err := opnd.View.BroadcastTo(outShape)
		if err != nil {
			return nil, err
		}
		srcs[i] = source{buf: buf, view: view}
	}
	return srcs, nil
}

// execElementwise runs unary/binary/identity instructions: one serial
// sweep over the output view applying the scalar kernel through the
// buffers' accessors.
func (m *Machine) execElementwise(p *bytecode.Program, in *bytecode.Instruction, k []bytecode.Constant) error {
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	outView := in.Out.View
	srcs, err := m.resolveSources(p, in, outView.Shape, k)
	if err != nil {
		return err
	}

	// NumPy-style overlap protection: if an input aliases the output
	// buffer through a different view, reading and writing in one sweep
	// would be order-dependent — snapshot that input first.
	for i := range srcs {
		s := &srcs[i]
		if s.isConst || s.buf != outBuf {
			continue
		}
		if !s.view.Equal(outView) && s.view.Overlaps(outView) {
			snap := (tensor.Tensor{Buf: s.buf, View: s.view}).Compact()
			s.buf, s.view = snap.Buf, snap.View
		}
	}

	m.stats.instructions.Add(1)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(outView.Size()))

	return m.slowElementwise(in.Op, outBuf, outView, srcs)
}

// useIntClass decides whether an instruction computes in exact int64
// arithmetic: all inputs and the output are integer/bool typed.
func useIntClass(out tensor.Buffer, srcs []source) bool {
	if out.DType().IsFloat() {
		return false
	}
	for _, s := range srcs {
		if s.isConst {
			continue
		}
		if s.buf.DType().IsFloat() {
			return false
		}
	}
	return true
}

// slowElementwise is the accessor path: per-element Get/Set loops over
// lockstep iterators, any dtype combination.
func (m *Machine) slowElementwise(op bytecode.Opcode, out tensor.Buffer, outView tensor.View, srcs []source) error {
	intClass := useIntClass(out, srcs)
	switch len(srcs) {
	case 1:
		if intClass {
			k, ok := intUnaryKernel(op)
			if !ok {
				// Transcendentals on ints compute in float and truncate
				// back through Buffer.Set.
				return m.slowUnaryFloat(op, out, outView, srcs[0])
			}
			s := srcs[0]
			if s.isConst {
				c := k(s.ci)
				it := tensor.NewIterator(outView)
				for it.Next() {
					out.SetInt(it.Index(), c)
				}
				return nil
			}
			zipIndices(outView, s.view, func(io, is int) {
				out.SetInt(io, k(s.buf.GetInt(is)))
			})
			return nil
		}
		return m.slowUnaryFloat(op, out, outView, srcs[0])

	case 2:
		a, b := srcs[0], srcs[1]
		if intClass {
			if k, ok := intBinaryKernel(op); ok {
				return m.slowBinaryInt(k, out, outView, a, b)
			}
		}
		k, ok := floatBinaryKernel(op)
		if !ok {
			return fmt.Errorf("no kernel for %s", op)
		}
		return m.slowBinaryFloat(k, out, outView, a, b)

	default:
		return fmt.Errorf("%s has %d inputs", op, len(srcs))
	}
}

func (m *Machine) slowUnaryFloat(op bytecode.Opcode, out tensor.Buffer, outView tensor.View, s source) error {
	k, ok := floatUnaryKernel(op)
	if !ok {
		return fmt.Errorf("no kernel for %s", op)
	}
	if s.isConst {
		c := k(s.cf)
		it := tensor.NewIterator(outView)
		for it.Next() {
			out.Set(it.Index(), c)
		}
		return nil
	}
	zipIndices(outView, s.view, func(io, is int) {
		out.Set(io, k(s.buf.Get(is)))
	})
	return nil
}

func (m *Machine) slowBinaryFloat(k func(a, b float64) float64, out tensor.Buffer, outView tensor.View, a, b source) error {
	switch {
	case a.isConst && b.isConst:
		c := k(a.cf, b.cf)
		it := tensor.NewIterator(outView)
		for it.Next() {
			out.Set(it.Index(), c)
		}
	case a.isConst:
		zipIndices(outView, b.view, func(io, ib int) {
			out.Set(io, k(a.cf, b.buf.Get(ib)))
		})
	case b.isConst:
		zipIndices(outView, a.view, func(io, ia int) {
			out.Set(io, k(a.buf.Get(ia), b.cf))
		})
	default:
		zipIndices3(outView, a.view, b.view, func(io, ia, ib int) {
			out.Set(io, k(a.buf.Get(ia), b.buf.Get(ib)))
		})
	}
	return nil
}

func (m *Machine) slowBinaryInt(k func(a, b int64) int64, out tensor.Buffer, outView tensor.View, a, b source) error {
	switch {
	case a.isConst && b.isConst:
		c := k(a.ci, b.ci)
		it := tensor.NewIterator(outView)
		for it.Next() {
			out.SetInt(it.Index(), c)
		}
	case a.isConst:
		zipIndices(outView, b.view, func(io, ib int) {
			out.SetInt(io, k(a.ci, b.buf.GetInt(ib)))
		})
	case b.isConst:
		zipIndices(outView, a.view, func(io, ia int) {
			out.SetInt(io, k(a.buf.GetInt(ia), b.ci))
		})
	default:
		zipIndices3(outView, a.view, b.view, func(io, ia, ib int) {
			out.SetInt(io, k(a.buf.GetInt(ia), b.buf.GetInt(ib)))
		})
	}
	return nil
}

// execRange fills the output with its row-major element index.
func (m *Machine) execRange(p *bytecode.Program, in *bytecode.Instruction) error {
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	m.stats.instructions.Add(1)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(in.Out.View.Size()))
	it := tensor.NewIterator(in.Out.View)
	i := 0
	for it.Next() {
		outBuf.SetInt(it.Index(), int64(i))
		i++
	}
	return nil
}

// execRandom fills the output with a counter-based deterministic stream:
// element i of (seed, key) is tensor.At(seed, key+i), scaled to [0, 1) for
// float outputs and kept as a non-negative integer otherwise.
func (m *Machine) execRandom(p *bytecode.Program, in *bytecode.Instruction, k []bytecode.Constant) error {
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	seed := uint64(k[0].Int())
	key := uint64(k[1].Int())
	m.stats.instructions.Add(1)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(in.Out.View.Size()))
	isFloat := outBuf.DType().IsFloat()
	it := tensor.NewIterator(in.Out.View)
	i := uint64(0)
	for it.Next() {
		bits := tensor.At(seed, key+i)
		if isFloat {
			outBuf.Set(it.Index(), float64(bits>>11)/(1<<53))
		} else {
			outBuf.SetInt(it.Index(), int64(bits>>1))
		}
		i++
	}
	return nil
}

// zipIndices walks two same-shaped views in lockstep, calling fn with the
// pair of linear indices of each element position, in row-major order.
func zipIndices(a, b tensor.View, fn func(ia, ib int)) {
	ia, ib := tensor.NewIterator(a), tensor.NewIterator(b)
	for ia.Next() && ib.Next() {
		fn(ia.Index(), ib.Index())
	}
}

// zipIndices3 walks three same-shaped views in lockstep.
func zipIndices3(a, b, c tensor.View, fn func(ia, ib, ic int)) {
	ia, ib, ic := tensor.NewIterator(a), tensor.NewIterator(b), tensor.NewIterator(c)
	for ia.Next() && ib.Next() && ic.Next() {
		fn(ia.Index(), ib.Index(), ic.Index())
	}
}

// zipIndicesRange is zipIndices over row-major positions [lo, hi) only:
// disjoint ranges, one goroutine each, visit exactly the pairs zipIndices
// visits serially.
func zipIndicesRange(a, b tensor.View, lo, hi int, fn func(ia, ib int)) {
	pos := 0
	zipIndices(a, b, func(ia, ib int) {
		if pos >= lo && pos < hi {
			fn(ia, ib)
		}
		pos++
	})
}

// TestZipIndices pins the oracle's walkers: zipIndices pairs the linear
// indices of two views position by position in row-major order (here a
// matrix and its transpose), zipIndices3 a third alongside, and
// zipIndicesRange over disjoint ranges visits exactly zipIndices' pairs.
func TestZipIndices(t *testing.T) {
	a := tensor.NewView(tensor.MustShape(2, 2))
	b := tensor.NewView(tensor.MustShape(2, 2)).Transpose()
	var pairs, ranged [][2]int
	zipIndices(a, b, func(ia, ib int) { pairs = append(pairs, [2]int{ia, ib}) })
	if want := [][2]int{{0, 0}, {1, 2}, {2, 1}, {3, 3}}; !slices.Equal(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	var triples [][3]int
	zipIndices3(a, b, a, func(ia, ib, ic int) { triples = append(triples, [3]int{ia, ib, ic}) })
	if want := [][3]int{{0, 0, 0}, {1, 2, 1}, {2, 1, 2}, {3, 3, 3}}; !slices.Equal(triples, want) {
		t.Fatalf("triples = %v, want %v", triples, want)
	}
	for _, r := range [][2]int{{0, 1}, {1, 1}, {1, 3}, {3, 4}} {
		zipIndicesRange(a, b, r[0], r[1], func(ia, ib int) { ranged = append(ranged, [2]int{ia, ib}) })
	}
	if !slices.Equal(ranged, pairs) {
		t.Fatalf("ranges visit %v, want %v", ranged, pairs)
	}
}
