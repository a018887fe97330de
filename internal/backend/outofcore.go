package backend

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// The out-of-core backend executes plans over arrays larger than a
// configured byte budget by streaming chunk-sized tiles through the
// engine's buffer recycle pool, the way an accelerator backend streams
// host arrays through device memory. Compilation splits the program into
// an alternation of
//
//   - segments: maximal runs of elementwise instructions whose every
//     register operand is a full, offset-0, contiguous view of its
//     register and whose arrays all share one element count. Element i of
//     every array in a segment depends only on element i of the others,
//     so the segment is chunked: a chunk-local body program (compiled
//     once for the full tile size, once for the tail) executes per tile
//     against staging buffers, with copy-in for live-in registers and
//     copy-out for live-out ones. Registers whose value never escapes the
//     segment — temporaries consumed inside it and freed later without
//     another reference — are never materialized at full size at all:
//     that is the memory the backend saves.
//
//   - barriers: everything else. Reductions and scans are barriers by
//     fiat even though tiling them is algebraically possible: chunked
//     accumulation reorders float arithmetic, and the repo's contract is
//     bit-for-bit equality with the in-process backend. BH_RANGE and
//     BH_RANDOM are barriers because they generate from the global flat
//     element index, which a chunk-local body does not know. Extensions,
//     system byte-codes, and any instruction using strided or partial
//     views are barriers too. Barriers execute on the session machine via
//     vm.Machine.ExecOne, which reproduces Plan.Execute's error wrapping
//     exactly — the differential suite pins error text, not only values.
//
// Chunked segments reuse the fused-sweep kernels per tile: the body
// program is compiled by an ordinary chunk machine with the session's
// fusion setting, so a five-op elementwise chain still runs as one fused
// sweep per tile.
const DefaultChunkBytes = 1 << 20

func init() {
	Register("outofcore", func(eng *vm.Engine, cfg Config) (Backend, error) {
		chunkBytes := cfg.ChunkBytes
		if chunkBytes <= 0 {
			chunkBytes = DefaultChunkBytes
		}
		cmCfg := cfg.VM
		cmCfg.PlanCacheSize = -1 // body plans live on the oocPlan, not in the shared cache
		return &outOfCore{
			m:          eng.NewMachine(cfg.VM),
			cm:         eng.NewMachine(cmCfg),
			chunkBytes: chunkBytes,
			scope:      fmt.Sprintf("outofcore/%d", chunkBytes),
		}, nil
	})
}

type outOfCore struct {
	// m holds the session's full-size register file: front-end bindings,
	// barrier execution, and the materialized live-out arrays of chunked
	// segments. cm is the chunk machine: its register file holds only
	// tile-sized staging buffers, rebuilt from the recycle pool per
	// segment.
	m          *vm.Machine
	cm         *vm.Machine
	chunkBytes int
	// scope salts the shared plan-cache key with the chunk budget as
	// well as the backend name: oocPlans bake their tile size into every
	// segment body, so a session streaming 4 KiB tiles must never
	// execute a plan compiled for 1 MiB tiles (the values would match —
	// chunking is bit-exact — but the session's memory budget would
	// not). Sessions sharing one engine AND one budget still share
	// plans.
	scope string
}

// oocPlan is the out-of-core compiled form: the original program plus its
// segment/barrier decomposition, with the chunk-local body plans compiled
// up front. Immutable after Compile.
type oocPlan struct {
	prog  *bytecode.Program
	steps []oocStep
}

// Program implements Plan.
func (pl *oocPlan) Program() *bytecode.Program { return pl.prog }

// Rebind implements vm.CachedPlan. Out-of-core plans are inserted as
// constant-exact (never parametric), so the cache never patches them;
// replaying the body plans under new constants would mean recompiling
// every segment, which is exactly what a cache miss does anyway.
func (pl *oocPlan) Rebind(vals []bytecode.Constant) (vm.CachedPlan, error) {
	return nil, fmt.Errorf("outofcore: plans are constant-exact and cannot be rebound")
}

// oocStep is one execution step: a chunked segment, or a single barrier
// instruction (seg == nil).
type oocStep struct {
	barrier int
	seg     *oocSegment
}

// oocSegment is one chunkable run of instructions.
type oocSegment struct {
	start, end int // [start, end) in prog.Instrs
	n          int // element count of every array in the segment
	chunk      int // elements per full tile
	regs       []oocReg
	body       *vm.Plan // tile of chunk elements; nil when n < chunk
	tail       *vm.Plan // tile of n%chunk elements; nil when it divides evenly
}

// oocReg maps one top-level register touched by a segment to its
// chunk-local staging register.
type oocReg struct {
	id    bytecode.RegID // register in the top-level program
	local bytecode.RegID // register in the chunk-local body program
	dt    tensor.DType
	// liveIn: read before any write inside the segment — its current
	// full-size chunk is copied into staging before each tile executes.
	liveIn bool
	// liveOut: written in the segment and possibly observable after it —
	// each tile's staging result is copied back to the full-size buffer.
	// A written register that is provably dead past the segment (see
	// deadAfter) is a segment local instead: staged only, never
	// materialized at full size.
	liveOut bool
}

func (b *outOfCore) Name() string { return "outofcore" }

func (b *outOfCore) Capabilities() Capabilities {
	return Capabilities{Chunked: true, ChunkBytes: b.chunkBytes}
}

// canonicalFull reports whether operand o addresses its register through
// the full flat view: offset 0, contiguous, covering every declared
// element. Only such operands chunk by plain offset arithmetic.
func canonicalFull(p *bytecode.Program, o bytecode.Operand) bool {
	info, ok := p.Reg(o.Reg)
	if !ok {
		return false
	}
	return o.View.Offset == 0 && o.View.Contiguous() && o.View.Size() == info.Len
}

// streamable reports whether instruction i may join a chunked segment,
// and the shared element count of its arrays.
func streamable(p *bytecode.Program, i int) (int, bool) {
	in := &p.Instrs[i]
	// BH_RANGE is classified elementwise (its output is) but generates
	// from the global flat index — a chunk-local body would restart it at
	// zero every tile. BH_RANDOM is excluded by Elementwise already.
	if !in.Op.Elementwise() || in.Op == bytecode.OpRange {
		return 0, false
	}
	if !in.Out.IsReg() || !canonicalFull(p, in.Out) {
		return 0, false
	}
	if len(in.Inputs()) == 0 {
		return 0, false
	}
	n := in.Out.View.Size()
	for _, o := range in.Inputs() {
		if o.IsConst() {
			continue
		}
		if !o.IsReg() || !canonicalFull(p, o) || o.View.Size() != n {
			return 0, false
		}
	}
	return n, true
}

// deadAfter reports whether register r's value provably never escapes
// instruction index end, making it a segment local: r is not a program
// output, the only later reference to it is its own BH_FREE (BH_SYNC is a
// materialization fence and so counts as a reference), and that BH_FREE
// exists. The free must be present: a register still live at the
// program's end may be consumed by the session's NEXT batch as an input,
// so it has to be materialized even though this program never reads it
// again. Once freed, the front end's handle-generation guard makes the
// register unreadable, so skipping its materialization is unobservable.
func deadAfter(p *bytecode.Program, end int, r bytecode.RegID) bool {
	if p.IsOutput(r) {
		return false
	}
	freed := false
	for k := end; k < len(p.Instrs); k++ {
		in := &p.Instrs[k]
		if in.Op == bytecode.OpFree {
			if in.Out.IsReg() && in.Out.Reg == r {
				freed = true
			}
			continue
		}
		if in.Out.IsReg() && in.Out.Reg == r {
			return false
		}
		for _, o := range in.Inputs() {
			if o.IsReg() && o.Reg == r {
				return false
			}
		}
	}
	return freed
}

// Compile implements Backend: decompose the vouched-for program into
// segments and barriers, and compile each segment's chunk-local body
// plans.
func (b *outOfCore) Compile(p *bytecode.Program) (Plan, error) {
	pl := &oocPlan{prog: p}
	i := 0
	for i < len(p.Instrs) {
		n, ok := streamable(p, i)
		if !ok {
			pl.steps = append(pl.steps, oocStep{barrier: i})
			i++
			continue
		}
		j := i + 1
		for j < len(p.Instrs) {
			n2, ok := streamable(p, j)
			if !ok || n2 != n {
				break
			}
			j++
		}
		seg, err := b.compileSegment(p, i, j, n)
		if err != nil {
			return nil, err
		}
		pl.steps = append(pl.steps, oocStep{seg: seg})
		i = j
	}
	return pl, nil
}

func (b *outOfCore) compileSegment(p *bytecode.Program, start, end, n int) (*oocSegment, error) {
	seg := &oocSegment{start: start, end: end, n: n}
	index := map[bytecode.RegID]int{}
	written := map[bytecode.RegID]bool{}
	touch := func(id bytecode.RegID, read bool) {
		if _, ok := index[id]; ok {
			return
		}
		info, _ := p.Reg(id) // streamable already vetted the declaration
		index[id] = len(seg.regs)
		seg.regs = append(seg.regs, oocReg{
			id:     id,
			local:  bytecode.RegID(len(seg.regs)),
			dt:     info.DType,
			liveIn: read,
		})
	}
	for k := start; k < end; k++ {
		in := &p.Instrs[k]
		// Inputs first: a register whose first touch is a read enters the
		// segment live (read-modify-write chains like AddC-in-place copy
		// their current chunk in).
		for _, o := range in.Inputs() {
			if o.IsReg() {
				touch(o.Reg, true)
			}
		}
		touch(in.Out.Reg, false)
		written[in.Out.Reg] = true
	}
	maxElem := 1
	for ri := range seg.regs {
		r := &seg.regs[ri]
		r.liveOut = written[r.id] && !deadAfter(p, end, r.id)
		if s := r.dt.Size(); s > maxElem {
			maxElem = s
		}
	}
	seg.chunk = b.chunkBytes / maxElem
	if seg.chunk < 1 {
		seg.chunk = 1
	}
	if n > 0 && seg.chunk > n {
		seg.chunk = n
	}
	if n >= seg.chunk {
		body, err := b.compileBody(p, seg, seg.chunk)
		if err != nil {
			return nil, err
		}
		seg.body = body
	}
	if rem := n % seg.chunk; rem > 0 {
		tail, err := b.compileBody(p, seg, rem)
		if err != nil {
			return nil, err
		}
		seg.tail = tail
	}
	return seg, nil
}

// compileBody builds and compiles the chunk-local program of one tile
// size: the segment's instructions with every register operand remapped
// to a staging register addressed through a flat length-L view. One body
// serves every tile of its size — the tile offset lives entirely in the
// copy-in/copy-out, so the plan compiles once and re-executes per chunk.
func (b *outOfCore) compileBody(p *bytecode.Program, seg *oocSegment, L int) (*vm.Plan, error) {
	body := bytecode.NewProgram()
	for _, r := range seg.regs {
		body.NewReg(r.dt, L)
	}
	for _, r := range seg.regs {
		if r.liveIn {
			body.MarkInput(r.local)
		}
		if r.liveOut {
			body.MarkOutput(r.local)
		}
	}
	view := tensor.NewView(tensor.MustShape(L))
	local := map[bytecode.RegID]bytecode.RegID{}
	for _, r := range seg.regs {
		local[r.id] = r.local
	}
	remap := func(o bytecode.Operand) bytecode.Operand {
		if !o.IsReg() {
			return o
		}
		return bytecode.Reg(local[o.Reg], view)
	}
	for k := seg.start; k < seg.end; k++ {
		src := &p.Instrs[k]
		body.Emit(bytecode.Instruction{
			Op:   src.Op,
			Out:  remap(src.Out),
			In1:  remap(src.In1),
			In2:  remap(src.In2),
			Axis: src.Axis,
		})
	}
	pl, err := b.cm.Compile(body)
	if err != nil {
		return nil, fmt.Errorf("%w: outofcore body [%d,%d): %w", vm.ErrExec, seg.start, seg.end, err)
	}
	return pl, nil
}

// Execute implements Backend.
func (b *outOfCore) Execute(pl Plan) error {
	op, ok := pl.(*oocPlan)
	if !ok {
		return fmt.Errorf("%w: plan %T was not compiled by the outofcore backend", vm.ErrExec, pl)
	}
	p := op.prog
	for _, r := range p.Inputs {
		if !b.m.Bound(r) {
			return fmt.Errorf("%w: input register %s not bound", vm.ErrExec, r)
		}
	}
	for _, st := range op.steps {
		if st.seg == nil {
			if err := b.m.ExecOne(p, st.barrier); err != nil {
				return err
			}
			continue
		}
		if err := b.execSegment(p, st.seg); err != nil {
			return err
		}
	}
	return nil
}

// execSegment streams one segment: materialize live-out arrays at full
// size, stage live-in tiles through recycle-pool buffers, and run the
// body plan per chunk on the chunk machine.
func (b *outOfCore) execSegment(p *bytecode.Program, seg *oocSegment) error {
	type liveIn struct {
		role    *oocReg
		full    tensor.Buffer
		staging tensor.Buffer
	}
	type liveOut struct {
		role *oocReg
		full tensor.Buffer
	}
	var ins []liveIn
	var outs []liveOut
	for ri := range seg.regs {
		r := &seg.regs[ri]
		if r.liveIn {
			t, ok := b.m.Tensor(r.id, tensor.View{})
			if !ok {
				// Unreachable for validated programs: inputs were checked
				// at the top of Execute, everything else is def-before-use.
				return fmt.Errorf("%w: segment [%d,%d): input register %s has no buffer",
					vm.ErrExec, seg.start, seg.end, r.id)
			}
			ins = append(ins, liveIn{role: r, full: t.Buf})
		}
		if r.liveOut {
			full, err := b.m.Materialize(p, r.id)
			if err != nil {
				return fmt.Errorf("%w: segment [%d,%d): %w", vm.ErrExec, seg.start, seg.end, err)
			}
			outs = append(outs, liveOut{role: r, full: full})
		}
	}
	if seg.n == 0 {
		return nil // zero-element sweep: outputs materialized, nothing to stream
	}

	stagingLen := seg.chunk
	if seg.n < stagingLen {
		stagingLen = seg.n
	}
	for i := range ins {
		buf, err := b.m.AcquireBuffer(ins[i].role.dt, stagingLen)
		if err != nil {
			return fmt.Errorf("%w: segment [%d,%d): %w", vm.ErrExec, seg.start, seg.end, err)
		}
		ins[i].staging = buf
		b.cm.Bind(ins[i].role.local, tensor.Tensor{Buf: buf, View: tensor.NewView(tensor.MustShape(stagingLen))})
	}
	// All staging state — bound inputs and the body's own materialized
	// locals/outputs — is torn down when the segment is done, returning
	// the tiles to the shared recycle pool for the next segment (or the
	// next session) to pick up.
	defer func() {
		b.cm.ReleaseRegisters()
		for i := range ins {
			b.m.ReleaseBuffer(ins[i].staging)
		}
	}()

	for lo := 0; lo < seg.n; lo += seg.chunk {
		L := seg.chunk
		body := seg.body
		if seg.n-lo < seg.chunk {
			L = seg.n - lo
			body = seg.tail
		}
		for i := range ins {
			if err := tensor.CopyFlat(ins[i].staging, 0, ins[i].full, lo, L); err != nil {
				return fmt.Errorf("%w: segment [%d,%d): %w", vm.ErrExec, seg.start, seg.end, err)
			}
		}
		if err := body.Execute(b.cm); err != nil {
			return fmt.Errorf("outofcore segment [%d,%d): %w", seg.start, seg.end, err)
		}
		for i := range outs {
			t, ok := b.cm.Tensor(outs[i].role.local, tensor.View{})
			if !ok {
				return fmt.Errorf("%w: segment [%d,%d): staging for %s vanished",
					vm.ErrExec, seg.start, seg.end, outs[i].role.id)
			}
			if err := tensor.CopyFlat(outs[i].full, lo, t.Buf, 0, L); err != nil {
				return fmt.Errorf("%w: segment [%d,%d): %w", vm.ErrExec, seg.start, seg.end, err)
			}
		}
		b.m.CountChunks(1)
	}
	return nil
}

func (b *outOfCore) Bind(r bytecode.RegID, t tensor.Tensor) { b.m.Bind(r, t) }

func (b *outOfCore) Tensor(r bytecode.RegID, v tensor.View) (tensor.Tensor, bool) {
	return b.m.Tensor(r, v)
}

func (b *outOfCore) PlanCacheEnabled() bool { return b.m.PlanCacheEnabled() }

func (b *outOfCore) LookupPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, accept func(meta any) bool) (Plan, any, bool) {
	cached, meta, ok := b.m.LookupPlan(scopeFingerprint(b.scope, fp), consts, accept)
	if !ok {
		return nil, nil, false
	}
	if cached == nil {
		return nil, meta, true
	}
	return cached.(*oocPlan), meta, true
}

func (b *outOfCore) InsertPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, parametric bool, pl Plan, meta any) {
	var cached vm.CachedPlan
	if pl != nil {
		op, ok := pl.(*oocPlan)
		if !ok {
			return // a foreign plan must never enter this backend's cache entries
		}
		cached = op
		// Out-of-core plans bake their segment bodies around the constant
		// vector they were compiled with; they hit only on the exact
		// vector (see Rebind). A nil plan has nothing to rebind, so the
		// optimized-to-empty entry stays parametric.
		parametric = false
	}
	b.m.InsertPlan(scopeFingerprint(b.scope, fp), consts, parametric, cached, meta)
}

// Stats combines the session machine's counters (barriers, plan cache,
// chunk count, staging buffer traffic) with the chunk machine's (the
// per-tile sweeps and fused instructions).
func (b *outOfCore) Stats() vm.Stats {
	st := b.m.Stats()
	st.Accumulate(b.cm.Stats())
	return st
}

func (b *outOfCore) ResetStats() {
	b.m.ResetStats()
	b.cm.ResetStats()
}

func (b *outOfCore) CountPipelined() { b.m.CountPipelined() }

func (b *outOfCore) Close() {
	b.cm.Close()
	b.m.Close()
}
