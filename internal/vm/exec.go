package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// exec dispatches one instruction through the interpreter. Plans run
// elementwise sweeps, reductions and scans on compiled loop nests instead
// (nest.go); they come here for everything else, and for the elementwise
// instructions a nest declines: promoted mixed-dtype operands, results
// that address an element twice, inputs that overlap the result through
// another window. A reduction or scan never comes here: interpret runs it
// as a fold nest of its own (execFold). k holds in's constant operands, in
// order, at its front.
func (m *Machine) exec(p *bytecode.Program, in *bytecode.Instruction, k []bytecode.Constant) error {
	switch in.Op.Info().Kind {
	case bytecode.KindSystem:
		switch in.Op {
		case bytecode.OpFree:
			m.regs.free(in.Out.Reg)
		case bytecode.OpSync, bytecode.OpNone:
			// SYNC is a materialization fence for the lazy front-end;
			// the VM itself is always coherent.
		}
		return nil
	case bytecode.KindGenerator:
		switch in.Op {
		case bytecode.OpRange:
			return m.execRange(p, in)
		case bytecode.OpRandom:
			return m.execRandom(p, in, k)
		default: // BH_IDENTITY is elementwise copy/fill
			return m.execElementwise(p, in, k)
		}
	case bytecode.KindUnary, bytecode.KindBinary:
		return m.execElementwise(p, in, k)
	case bytecode.KindExtension:
		return m.execExtension(p, in)
	default:
		return fmt.Errorf("unsupported op-code %s", in.Op)
	}
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
// buffers' accessors. It defines the semantics of every dtype combination
// — the nest's typed kernels are pinned against it bit for bit.
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
			tensor.ZipIndices(outView, s.view, func(io, is int) {
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
	tensor.ZipIndices(outView, s.view, func(io, is int) {
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
		tensor.ZipIndices(outView, b.view, func(io, ib int) {
			out.Set(io, k(a.cf, b.buf.Get(ib)))
		})
	case b.isConst:
		tensor.ZipIndices(outView, a.view, func(io, ia int) {
			out.Set(io, k(a.buf.Get(ia), b.cf))
		})
	default:
		tensor.ZipIndices3(outView, a.view, b.view, func(io, ia, ib int) {
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
		tensor.ZipIndices(outView, b.view, func(io, ib int) {
			out.SetInt(io, k(a.ci, b.buf.GetInt(ib)))
		})
	case b.isConst:
		tensor.ZipIndices(outView, a.view, func(io, ia int) {
			out.SetInt(io, k(a.buf.GetInt(ia), b.ci))
		})
	default:
		tensor.ZipIndices3(outView, a.view, b.view, func(io, ia, ib int) {
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
