package bytecode

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Fingerprint is a canonical digest of a program's *structure*: opcodes,
// reduction axes, register operands (id, declared dtype and base length,
// view offset/shape/strides), constant positions and dtypes, and the
// input/output role of every referenced register. Constant *values* and
// buffer contents are excluded, so two batches that differ only in their
// immediates share a fingerprint — the property the plan cache keys on
// (see ARCHITECTURE.md, "Fingerprint legality rules"). Declarations no
// instruction references are excluded too: unrelated arrays living in
// the same session must not perturb the key of an iterative batch.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint's leading bytes for logs and tests.
func (f Fingerprint) String() string { return fmt.Sprintf("%x", f[:8]) }

// Fingerprint computes the structural digest of the program. Programs
// that compare equal under it are interchangeable for compilation
// purposes up to constant values: same instruction sequence, same
// register declarations and views at every operand, same input/output
// roles over the registers the instructions touch. The encoding, written
// in one pass as varints and hashed once, delimits itself even for a
// program nobody validated (ARCHITECTURE.md §3). A batch within
// fpStackRegs registers and fpStackBytes of encoding allocates nothing.
func (p *Program) Fingerprint() Fingerprint {
	var bufStack [fpStackBytes]byte
	var flagStack [fpStackRegs]uint8 // per register: bit 0 used, bits 1-2 role
	flags := flagStack[:min(len(p.Regs), fpStackRegs)]
	if len(p.Regs) > fpStackRegs {
		flags = make([]uint8, len(p.Regs))
	}
	buf := bufStack[:0]
	put := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	used := 0
	put(len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		put(int(in.Op))
		put(in.Axis)
		for _, o := range [...]*Operand{&in.Out, &in.In1, &in.In2} {
			put(int(o.Kind))
			switch o.Kind {
			case OperandReg:
				put(int(o.Reg))
				if r := int(o.Reg); r >= 0 && r < len(flags) {
					if flags[r] == 0 {
						used++
					}
					flags[r] = 1
					put(int(p.Regs[r].DType))
					put(p.Regs[r].Len)
				} else {
					// An undeclared register has no flag slot: dtype -1
					// marks it, and its role goes inline.
					put(-1)
					put(p.role(o.Reg))
				}
				put(o.View.Offset)
				put(len(o.View.Shape))
				for _, d := range o.View.Shape {
					put(d)
				}
				put(len(o.View.Strides))
				for _, s := range o.View.Strides {
					put(s)
				}
			case OperandConst:
				// Dtype keys the cache (it selects the computation class);
				// the value is a plan parameter and stays out of the digest.
				put(int(o.Const.DType))
			}
		}
	}
	// Roles of the referenced registers, in register order: whether each
	// is bound before execution and whether it is externally observable.
	// Both gate rewrites (liveness, DCE), so both key the cache.
	for i, regs := range [...][]RegID{p.Inputs, p.Outputs} {
		for _, r := range regs {
			if r >= 0 && int(r) < len(flags) {
				flags[r] |= 2 << i
			}
		}
	}
	put(used)
	for r, f := range flags {
		if f&1 != 0 {
			put(r)
			put(int(f >> 1))
		}
	}
	return sha256.Sum256(buf)
}

// Fingerprint's stack buffer sizes.
const fpStackRegs, fpStackBytes = 64, 1024

// role is register r's role as the fingerprint encodes it: 1 for an
// input, 2 for an output, 3 for both.
func (p *Program) role(r RegID) (role int) {
	if p.IsInput(r) {
		role = 1
	}
	if p.IsOutput(r) {
		role |= 2
	}
	return role
}

// Constants collects every constant operand in instruction order (In1
// before In2). The slice is the batch's "constant vector": together with
// the Fingerprint it fully identifies the batch, and a compiled plan runs
// under any vector of its program's dtypes (vm.Plan.Execute), each
// constant operand reading its slot in this order.
func (p *Program) Constants() []Constant { return p.AppendConstants(nil) }

// AppendConstants appends the constant vector to dst and returns it, so a
// caller that keys every batch can reuse one buffer.
func (p *Program) AppendConstants(dst []Constant) []Constant {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.In1.IsConst() {
			dst = append(dst, in.In1.Const)
		}
		if in.In2.IsConst() {
			dst = append(dst, in.In2.Const)
		}
	}
	return dst
}
