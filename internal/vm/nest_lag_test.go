package vm

import (
	"math/rand"
	"runtime"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// windowBatch is the update batch over a rows×cols float64 grid with the
// read window and the temporary's fate left open: tmp = centre + read;
// tmp *= 0.2; centre = tmp; then tail (BH_FREE of tmp when nil); BH_SYNC
// of the grid. centre is rows [top, top+h) without the first and last
// column; read receives the full grid view and centre's.
func windowBatch(rows, cols, top, h int, read func(full, centre tensor.View) tensor.View, tail func(p *bytecode.Program, tmp bytecode.Operand)) genProgram {
	p := bytecode.NewProgram()
	grid := p.NewReg(tensor.Float64, rows*cols)
	p.MarkInput(grid)
	full := tensor.NewView(tensor.MustShape(rows, cols))
	centre, _ := full.Slice(0, top, top+h, 1)
	centre, _ = centre.Slice(1, 1, cols-1, 1)
	tmp := bytecode.Reg(p.NewReg(tensor.Float64, centre.Size()), tensor.NewView(centre.Shape))
	c := bytecode.Reg(grid, centre)
	p.EmitBinary(bytecode.OpAdd, tmp, c, bytecode.Reg(grid, read(full, centre)))
	p.EmitBinary(bytecode.OpMultiply, tmp, tmp, bytecode.Const(bytecode.ConstFloat(0.2)))
	p.EmitIdentity(c, tmp)
	if tail == nil {
		p.EmitFree(tmp)
	} else {
		tail(p, tmp)
	}
	p.EmitSync(bytecode.Reg(grid, full))
	in := tensor.MustNew(tensor.Float64, tensor.MustShape(rows, cols))
	in.FillRandom(19, 0, 100)
	return genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{grid: in}}
}

// shifted is the centre window moved up by north rows.
func shifted(north int) func(full, centre tensor.View) tensor.View {
	return func(_, centre tensor.View) tensor.View {
		v := centre.Clone()
		v.Offset -= north * centre.Strides[0]
		return v
	}
}

// TestNestClosingWriteRule pins what the translated-window rule accepts
// and — one case per declined shape — what keeps today's two sweeps or
// today's materialized temporary, always with the interpreter's values.
func TestNestClosingWriteRule(t *testing.T) {
	type ruleCase struct {
		name          string
		gp            genProgram
		sweeps, fused int
		buffers       int // materialized temporaries
	}
	cases := []ruleCase{
		{name: "one row behind: lagged, temporary virtual",
			gp: windowBatch(8, 8, 1, 6, shifted(1), nil), sweeps: 1, fused: 3},
		{name: "read window with another stride",
			gp: windowBatch(14, 8, 1, 6, func(full, _ tensor.View) tensor.View {
				v, _ := full.Slice(0, 0, 12, 2)
				v, _ = v.Slice(1, 1, 7, 1)
				return v
			}, nil), sweeps: 2, fused: 2, buffers: 1},
		{name: "reversed read window",
			gp: windowBatch(8, 8, 1, 6, func(full, _ tensor.View) tensor.View {
				v, _ := full.Slice(0, 5, -1, -1)
				v, _ = v.Slice(1, 1, 7, 1)
				return v
			}, nil), sweeps: 2, fused: 2, buffers: 1},
		{name: "transposed read window",
			gp: windowBatch(8, 8, 1, 6, func(_, centre tensor.View) tensor.View {
				return centre.Transpose()
			}, nil), sweeps: 2, fused: 2, buffers: 1},
		{name: "temporary not freed in the batch",
			gp:     windowBatch(8, 8, 1, 6, shifted(1), func(*bytecode.Program, bytecode.Operand) {}),
			sweeps: 1, fused: 3, buffers: 1},
		{name: "temporary synced before its free",
			gp: windowBatch(8, 8, 1, 6, shifted(1), func(p *bytecode.Program, tmp bytecode.Operand) {
				p.EmitSync(tmp)
				p.EmitFree(tmp)
			}), sweeps: 1, fused: 3, buffers: 1},
		{name: "temporary is a program output",
			gp: windowBatch(8, 8, 1, 6, shifted(1), func(p *bytecode.Program, tmp bytecode.Operand) {
				p.MarkOutput(tmp.Reg)
				p.EmitFree(tmp)
			}), sweeps: 1, fused: 3, buffers: 1},
		{name: "shift within the ring bound",
			gp: windowBatch(64, 1026, 31, 32, shifted(30), nil), sweeps: 1, fused: 3},
		{name: "shift beyond the ring bound",
			gp: windowBatch(144, 1026, 71, 72, shifted(70), nil), sweeps: 2, fused: 2, buffers: 1},
	}
	// The closing write aliases an earlier *write* through another window:
	// north = 5; tmp = north * 2; centre = tmp.
	{
		gp := windowBatch(8, 8, 1, 6, shifted(1), nil)
		p := gp.prog
		north, tmp, centre := p.Instrs[0].In2, p.Instrs[0].Out, p.Instrs[0].In1
		p.Instrs = p.Instrs[:0]
		p.EmitIdentity(north, bytecode.Const(bytecode.ConstFloat(5)))
		p.EmitBinary(bytecode.OpMultiply, tmp, north, bytecode.Const(bytecode.ConstFloat(2)))
		p.EmitIdentity(centre, tmp)
		p.EmitFree(tmp)
		cases = append(cases, ruleCase{name: "closing write aliases an earlier write", gp: gp, sweeps: 2, fused: 2, buffers: 1})
	}
	// A constant closing write beside a virtual temporary that happens to be
	// register 0 — the register id a constant operand's zero value names:
	// tmp = south + north; keep = tmp * 2; centre = 5. The constant is
	// stored lagged from a ring of its own, never from tmp's rows.
	{
		p := bytecode.NewProgram()
		row := tensor.NewView(tensor.MustShape(10))
		window := func(r bytecode.RegID, from int) bytecode.Operand {
			v, _ := row.Slice(0, from, from+8, 1)
			return bytecode.Reg(r, v)
		}
		tmp := bytecode.Reg(p.NewReg(tensor.Float64, 8), tensor.NewView(tensor.MustShape(8)))
		grid := p.NewReg(tensor.Float64, 10)
		keep := bytecode.Reg(p.NewReg(tensor.Float64, 8), tmp.View)
		p.MarkInput(grid)
		p.EmitBinary(bytecode.OpAdd, tmp, window(grid, 0), window(grid, 2))
		p.EmitBinary(bytecode.OpMultiply, keep, tmp, bytecode.Const(bytecode.ConstFloat(2)))
		p.EmitIdentity(window(grid, 1), bytecode.Const(bytecode.ConstFloat(5)))
		p.EmitFree(tmp)
		p.EmitSync(bytecode.Reg(grid, row))
		in := tensor.MustNew(tensor.Float64, row.Shape)
		in.FillRandom(19, 0, 100)
		cases = append(cases, ruleCase{name: "constant closing write beside virtual register 0",
			gp: genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{grid: in}}, sweeps: 1, fused: 3, buffers: 1})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkNestDifferential(t, tc.gp)
			m := nestRun(t, tc.gp, Config{Fusion: true, Workers: 1}, false)
			st := m.Stats()
			if st.Sweeps != tc.sweeps || st.FusedInstructions != tc.fused {
				t.Errorf("ran as %d sweeps with %d fused instructions, want %d and %d\n%s",
					st.Sweeps, st.FusedInstructions, tc.sweeps, tc.fused, tc.gp.prog)
			}
			if got := st.BuffersAllocated + st.PoolHits; got != tc.buffers {
				t.Errorf("%d temporaries materialized, want %d", got, tc.buffers)
			}
		})
	}
}

// TestNestChunkEdgeHold hammers the part of the lagged store that only
// -race and repetition can check: chunks of one row, two rows and half a
// row, whose first runs are held for the chunk before and whose last for
// the chunk after, executing one cached plan over and over against the
// interpreter's evolving grid.
func TestNestChunkEdgeHold(t *testing.T) {
	const n, rounds = 34, 60 // 32×32 interior
	gp, grid := stencilBatch(n)
	oracle := New(Config{Workers: 1})
	defer oracle.Close()
	want := cloneTensor(gp.inputs[grid])
	oracle.Bind(grid, want)
	oracle.regs.grow(len(gp.prog.Regs))
	machines := map[int]*Machine{}
	grids := map[int]tensor.Tensor{}
	var pl *Plan
	for _, workers := range []int{64, 32, 16, 3} { // half-row, one-row, two-row and ragged chunks
		m := New(Config{Fusion: true, Workers: workers, ParallelThreshold: 1})
		defer m.Close()
		machines[workers], grids[workers] = m, cloneTensor(gp.inputs[grid])
		m.Bind(grid, grids[workers])
		if pl == nil {
			var err error
			if pl, err = m.Compile(gp.prog); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		if err := oracle.refInterpret(gp.prog, 0, len(gp.prog.Instrs), gp.prog.Constants()); err != nil {
			t.Fatal(err)
		}
		for workers, m := range machines {
			if err := pl.Execute(m, nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < want.Buf.Len(); i++ {
				if got := grids[workers].Buf.Get(i); got != want.Buf.Get(i) {
					t.Fatalf("round %d, %d workers: grid[%d,%d] = %v, interpreter has %v", round, workers, i/n, i%n, got, want.Buf.Get(i))
				}
			}
		}
	}
}

// TestNestExecuteReusesFrame: the offset tables, scratch slabs, ring, fold
// partials and bound-buffer table live in the Machine's frame, so
// executing a cached plan allocates a handful of small objects (the
// parallelFor closures) and nothing the size of a row (a block, for rows
// longer than one): not a stencil, not a chain folded into a sum
// (dispatch-small's power batch), not a chunk-axis fold on two workers.
func TestNestExecuteReusesFrame(t *testing.T) {
	stencil, _ := stencilBatch(258)
	for _, tc := range []struct {
		name string
		gp   genProgram
		cfg  Config
		row  int // bytes
	}{
		{"stencil", stencil, Config{Fusion: true, Workers: 2, ParallelThreshold: 64}, 256 * 8},
		{"chain-then-sum", foldBatch(1, 2048, tensor.Float64, bytecode.OpAddReduce, false), Config{Fusion: true}, 2048 * 8},
		{"chunk-axis-sum", foldBatch(1, 1<<17, tensor.Float64, bytecode.OpAddReduce, false), Config{Fusion: true, Workers: 2}, fusedBlockSize * 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(tc.cfg)
			defer m.Close()
			for r, in := range tc.gp.inputs {
				m.Bind(r, cloneTensor(in))
			}
			pl, err := m.Compile(tc.gp.prog)
			if err != nil {
				t.Fatal(err)
			}
			exec := func() {
				if err := pl.Execute(m, nil); err != nil {
					t.Fatal(err)
				}
			}
			exec() // size the frame
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, exec)
			runtime.ReadMemStats(&after)
			if allocs > 8 {
				t.Errorf("executing the cached plan makes %v allocations per run, want at most 8", allocs)
			}
			if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun >= uint64(tc.row) {
				t.Errorf("executing the cached plan allocates %d bytes per run: a row is %d", perRun, tc.row)
			}
		})
	}
}

// TestLivenessMatchesScan checks the one-pass liveness against the
// definition it replaced: dead after j means freed later, referenced by
// nothing but BH_FREE later, and neither input nor output.
func TestLivenessMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		data := make([]byte, 128)
		rng.Read(data)
		p := (&nestGen{data: data}).update().prog
		if i%2 == 0 {
			p = (&nestGen{data: data}).program().prog
			p.EmitFree(bytecode.Reg(3, tensor.NewView(tensor.MustShape(1))))
		}
		if i%3 == 0 {
			p.MarkOutput(bytecode.RegID(len(p.Regs) - 1))
		}
		live := new(compileArena).liveness(p)
		for r := range p.Regs {
			reg := bytecode.RegID(r)
			for j := -1; j < len(p.Instrs); j++ {
				freed, referenced := false, p.IsInput(reg) || p.IsOutput(reg)
				for k := j + 1; k < len(p.Instrs); k++ {
					in := &p.Instrs[k]
					switch {
					case in.Op == bytecode.OpFree:
						freed = freed || in.Out.Reg == reg
					case in.Out.IsReg() && in.Out.Reg == reg, in.ReadsReg(reg):
						referenced = true
					}
				}
				if got := live.deadAfter(reg, j); got != (freed && !referenced) {
					t.Fatalf("deadAfter(%s, %d) = %v, scan says %v\n%s", reg, j, got, freed && !referenced, p)
				}
			}
		}
	}
}

// BenchmarkNestStencil times the benchmark's stencil-sweep batch on a
// 1024² float64 grid at the VM level — one cached plan, one Execute per
// iteration — so the sweep engine has a seconds-long dev loop.
func BenchmarkNestStencil(b *testing.B) {
	const n = 1024
	gp, grid := stencilBatch(n)
	m := New(Config{Fusion: true})
	defer m.Close()
	m.Bind(grid, cloneTensor(gp.inputs[grid]))
	pl, err := m.Compile(gp.prog)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.Execute(m, nil); err != nil { // size the frame
		b.Fatal(err)
	}
	b.SetBytes(2 * 8 * n * n) // compulsory traffic: the grid read and written once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.Execute(m, nil); err != nil {
			b.Fatal(err)
		}
	}
}
