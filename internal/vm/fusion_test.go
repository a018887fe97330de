package vm

import (
	"testing"
	"testing/quick"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

func TestFusionClusterPlanning(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 100
BH_IDENTITY a0 0
BH_ADD a0 a0 1
BH_ADD a0 a0 1
BH_SYNC a0
BH_MULTIPLY a0 a0 2.0
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	clusters := m.CompileValidated(p).clusters
	// [IDENTITY ADD ADD] fused, [SYNC], [MULTIPLY].
	if len(clusters) != 3 {
		t.Fatalf("planned %d clusters, want 3: %+v", len(clusters), clusters)
	}
	if !clusters[0].fused || clusters[0].end-clusters[0].start != 3 {
		t.Errorf("first cluster = %+v, want fused run of 3", clusters[0])
	}
	if clusters[1].fused || clusters[2].fused {
		t.Error("SYNC and singleton sweeps must not report fused")
	}
}

func TestFusionBreaksOnOverlappingViewChange(t *testing.T) {
	// The second ADD writes a window overlapping the first one's at a
	// different alignment: the same buffer slot maps to different
	// iteration indices, so fusing would reorder a cross-element
	// dependence. Must not fuse.
	p := bytecode.MustParse(`
.reg a0 float64 100
BH_IDENTITY a0 0
BH_ADD a0 [0:50:1] a0 [0:50:1] 1
BH_ADD a0 [25:75:1] a0 [25:75:1] 1
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	for _, c := range m.CompileValidated(p).clusters {
		if c.fused {
			for i := c.start + 1; i < c.end; i++ {
				if p.Instrs[i].Op == bytecode.OpAdd && p.Instrs[i-1].Op == bytecode.OpAdd {
					t.Errorf("overlapping misaligned ADDs fused: %+v", c)
				}
			}
		}
	}
	// Sanity: the fused result still matches unfused execution.
	runBoth(t, p)
}

func TestFusionAllowsDisjointViews(t *testing.T) {
	// Disjoint halves of the same register share no buffer slot: fusing
	// the two in-place ADDs is safe and saves a sweep.
	p := bytecode.MustParse(`
.reg a0 float64 100
BH_IDENTITY a0 0
BH_ADD a0 [0:50:1] a0 [0:50:1] 1
BH_ADD a0 [50:100:1] a0 [50:100:1] 2
BH_SYNC a0
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	fusedPair := false
	for _, c := range m.CompileValidated(p).clusters {
		if c.fused && c.end-c.start >= 2 {
			fusedPair = true
		}
	}
	if !fusedPair {
		t.Error("disjoint-view ADDs did not fuse")
	}
	runBoth(t, p)
}

func TestFusionShiftedWindows(t *testing.T) {
	// Stencil-style reads through three overlapping shifted windows of
	// a0 (reads never conflict) accumulating into a1: fuses into one
	// sweep, results must match unfused execution.
	p := bytecode.MustParse(`
.reg a0 float64 40
.reg a1 float64 38
BH_RANGE a0
BH_ADD a1 [0:38:1] a0 [0:38:1] a0 [2:40:1]
BH_MULTIPLY a1 [0:38:1] a1 [0:38:1] a0 [1:39:1]
BH_SYNC a1
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	clusters := m.CompileValidated(p).clusters
	found := false
	for _, c := range clusters {
		if c.fused && c.end-c.start == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("shifted read windows did not fuse: %+v", clusters)
	}
	runBoth(t, p)
}

func TestFusionStridedCluster(t *testing.T) {
	// Strided operand views (every other element) share shape (20): the
	// cluster's nest gathers them and must match unfused results.
	p := bytecode.MustParse(`
.reg a0 float64 40
.reg a1 float64 20
BH_RANGE a0
BH_ADD a1 [0:20:1] a0 [0:40:2] a0 [1:41:2]
BH_MULTIPLY a1 [0:20:1] a1 [0:20:1] 3.0
BH_SYNC a1
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	pl, err := m.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var gathered bool
	for _, c := range pl.clusters {
		if c.fused {
			for _, st := range c.steps {
				gathered = gathered || st.acc[1].stride == 2 && st.acc[2].stride == 2
			}
		}
	}
	if !gathered {
		t.Errorf("strided cluster does not gather its inputs: %+v", pl.clusters)
	}
	runBoth(t, p)
}

func TestFusionStrided2D(t *testing.T) {
	// A genuine 2-d Jacobi step over a 6x6 grid: four shifted 4x4 windows
	// plus a constant scale fuse into one strided sweep, and the write-back
	// into the grid — a pure translation of every read window — closes the
	// cluster as a lagged store. The temporary is not freed, so it is
	// materialized and the ring is the write-back's own.
	p := bytecode.MustParse(`
.reg a0 float64 36
.reg a1 float64 16
BH_RANGE a0 [0:36:1]
BH_ADD a1 [0:16:4][0:4:1] a0 [1:25:6][0:4:1] a0 [13:37:6][0:4:1]
BH_ADD a1 [0:16:4][0:4:1] a1 [0:16:4][0:4:1] a0 [6:30:6][0:4:1]
BH_ADD a1 [0:16:4][0:4:1] a1 [0:16:4][0:4:1] a0 [8:32:6][0:4:1]
BH_MULTIPLY a1 [0:16:4][0:4:1] a1 [0:16:4][0:4:1] 0.25
BH_IDENTITY a0 [7:31:6][0:4:1] a1 [0:16:4][0:4:1]
BH_SYNC a0 [0:36:1]
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	pl := m.CompileValidated(p)
	if len(pl.clusters) != 3 {
		t.Fatalf("planned %d clusters, want RANGE, the stencil, SYNC: %+v", len(pl.clusters), pl.clusters)
	}
	if c := pl.clusters[1]; c.start != 1 || c.end != 6 || c.lag == nil || c.lag.lagSpan != (lagSpan{back: 6, ahead: 6}) {
		t.Errorf("stencil cluster [%d,%d) (lag %+v): want [1,6) closed by a write one row behind and ahead of its reads", c.start, c.end, c.lag)
	}
	runBoth(t, p)
}

func TestFusionAbsorbsMixedDTypeStep(t *testing.T) {
	// A step whose operands mix dtypes (the cast below reads int64 into a
	// float64 result) is a step like any other: the batch runs as one
	// cluster, bit-equal to the unfused run.
	p := bytecode.MustParse(`
.reg a0 float64 100
.reg a1 int64 100
BH_IDENTITY a1 3
BH_ADD a1 a1 1
BH_IDENTITY a0 a1
BH_ADD a0 a0 0.5
BH_SYNC a0
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	if c := m.CompileValidated(p).clusters[0]; !c.fused || c.end != 4 || !c.mixed {
		t.Errorf("mixed-dtype cast did not join the cluster: %+v", c)
	}
	runBoth(t, p)
}

func TestFusionClustersEveryDType(t *testing.T) {
	// Uniform-dtype chains fuse for every supported dtype, and steps of
	// different dtypes may share one cluster when shapes agree.
	for _, dt := range []string{"float64", "float32", "int64", "int32", "uint8"} {
		t.Run(dt, func(t *testing.T) {
			p := bytecode.MustParse(`
.reg a0 ` + dt + ` 100
BH_IDENTITY a0 2
BH_ADD a0 a0 3
BH_MULTIPLY a0 a0 a0
BH_SYNC a0
`)
			m := New(Config{Fusion: true})
			defer m.Close()
			fusedRun := false
			for _, c := range m.CompileValidated(p).clusters {
				if c.fused && c.end-c.start == 3 {
					fusedRun = true
				}
			}
			if !fusedRun {
				t.Errorf("%s chain did not fuse: %+v", dt, m.CompileValidated(p).clusters)
			}
			runBoth(t, p)
		})
	}
	// Cross-dtype cluster: float64 and int64 steps over one shape fuse
	// into a single sweep, each step with its own typed loop.
	p := bytecode.MustParse(`
.reg a0 float64 100
.reg a1 int64 100
BH_IDENTITY a0 0.5
BH_IDENTITY a1 3
BH_ADD a0 a0 1.5
BH_ADD a1 a1 1
BH_SYNC a0
BH_SYNC a1
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	clusters := m.CompileValidated(p).clusters
	if !clusters[0].fused || clusters[0].end-clusters[0].start != 4 {
		t.Errorf("cross-dtype cluster did not form: %+v", clusters)
	}
	runBoth(t, p)
}

func TestFusionSkipsMisalignedSelfOverlap(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 100
BH_RANGE a0
BH_ADD a0 [1:100:1] a0 [0:99:1] 0
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	for _, c := range m.CompileValidated(p).clusters {
		if c.fused {
			t.Errorf("misaligned self-overlap fused: %+v", c)
		}
	}
}

// runBoth executes the program twice — fusion off and on — and compares
// every synced register.
func runBoth(t *testing.T, p *bytecode.Program) {
	t.Helper()
	plain := New(Config{Fusion: false})
	defer plain.Close()
	fused := New(Config{Fusion: true})
	defer fused.Close()
	if err := plain.Run(p.Clone()); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := fused.Run(p.Clone()); err != nil {
		t.Fatalf("fused run: %v", err)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op != bytecode.OpSync {
			continue
		}
		a, ok1 := plain.Tensor(in.Out.Reg, in.Out.View)
		b, ok2 := fused.Tensor(in.Out.Reg, in.Out.View)
		if !ok1 || !ok2 {
			t.Fatalf("synced register %s missing", in.Out.Reg)
		}
		if !a.AllClose(b, 1e-12, 1e-12) {
			t.Errorf("fusion changed register %s: max diff %v", in.Out.Reg, a.MaxAbsDiff(b))
		}
	}
	// Fusion must actually reduce sweeps on fusible programs.
	if fused.Stats().Sweeps > plain.Stats().Sweeps {
		t.Errorf("fusion increased sweeps: %d vs %d", fused.Stats().Sweeps, plain.Stats().Sweeps)
	}
}

func TestFusionEquivalenceListing2(t *testing.T) {
	runBoth(t, bytecode.MustParse(`
BH_IDENTITY a0 [0:1000:1] 0
BH_ADD a0 [0:1000:1] a0 [0:1000:1] 1
BH_ADD a0 [0:1000:1] a0 [0:1000:1] 1
BH_ADD a0 [0:1000:1] a0 [0:1000:1] 1
BH_SYNC a0 [0:1000:1]
`))
}

func TestFusionEquivalenceMixed(t *testing.T) {
	runBoth(t, bytecode.MustParse(`
.reg a0 float64 512
.reg a1 float64 512
.reg a2 float64 512
BH_RANGE a0
BH_MULTIPLY a1 a0 0.01
BH_SIN a2 a1
BH_MULTIPLY a2 a2 a2
BH_ADD a2 a2 1.0
BH_SQRT a2 a2
BH_SYNC a2
`))
}

func TestFusionEquivalenceRandomPrograms(t *testing.T) {
	f := func(seed uint64, nInstr uint8) bool {
		p := randomFloatProgram(seed, int(nInstr%15)+1)
		plain := New(Config{Fusion: false})
		defer plain.Close()
		fused := New(Config{Fusion: true})
		defer fused.Close()
		if err := plain.Run(p.Clone()); err != nil {
			return false
		}
		if err := fused.Run(p.Clone()); err != nil {
			return false
		}
		for r := 0; r < len(p.Regs); r++ {
			info, _ := p.Reg(bytecode.RegID(r))
			v := tensor.NewView(tensor.MustShape(info.Len))
			a, ok1 := plain.Tensor(bytecode.RegID(r), v)
			b, ok2 := fused.Tensor(bytecode.RegID(r), v)
			if ok1 != ok2 {
				return false
			}
			if ok1 && !a.AllClose(b, 1e-12, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomFloatProgram builds a random fusible-ish float64 program: a few
// registers, a mix of unary/binary ops, occasional strided views and SYNCs.
func randomFloatProgram(seed uint64, n int) *bytecode.Program {
	r := tensor.NewSplitMix64(seed)
	p := bytecode.NewProgram()
	regLen := r.Intn(200) + 4
	full := tensor.NewView(tensor.MustShape(regLen))
	nRegs := r.Intn(3) + 1
	regs := make([]bytecode.RegID, nRegs)
	for i := range regs {
		regs[i] = p.NewReg(tensor.Float64, regLen)
		p.EmitIdentity(bytecode.Reg(regs[i], full), bytecode.Const(bytecode.ConstFloat(float64(r.Intn(9))-4)))
	}
	binOps := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpMaximum, bytecode.OpMinimum}
	unOps := []bytecode.Opcode{bytecode.OpAbsolute, bytecode.OpNegative, bytecode.OpFloor, bytecode.OpCos}
	for i := 0; i < n; i++ {
		out := regs[r.Intn(nRegs)]
		view := full
		if r.Intn(4) == 0 { // occasionally strided: half the elements
			view, _ = full.Slice(0, 0, regLen-regLen%2, 2)
		}
		switch r.Intn(4) {
		case 0:
			p.EmitBinary(binOps[r.Intn(len(binOps))], bytecode.Reg(out, view),
				bytecode.Reg(regs[r.Intn(nRegs)], view), bytecode.Const(bytecode.ConstFloat(float64(r.Intn(5)))))
		case 1:
			p.EmitBinary(binOps[r.Intn(len(binOps))], bytecode.Reg(out, view),
				bytecode.Reg(regs[r.Intn(nRegs)], view), bytecode.Reg(regs[r.Intn(nRegs)], view))
		case 2:
			p.EmitUnary(unOps[r.Intn(len(unOps))], bytecode.Reg(out, view), bytecode.Reg(regs[r.Intn(nRegs)], view))
		default:
			p.EmitSync(bytecode.Reg(out, full))
		}
	}
	for i := range regs {
		p.EmitSync(bytecode.Reg(regs[i], full))
	}
	return p
}

func TestFusedStatsCountClusters(t *testing.T) {
	p := bytecode.MustParse(`
BH_IDENTITY a0 [0:100:1] 0
BH_ADD a0 [0:100:1] a0 [0:100:1] 1
BH_ADD a0 [0:100:1] a0 [0:100:1] 1
BH_SYNC a0 [0:100:1]
`)
	m := New(Config{Fusion: true})
	defer m.Close()
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Sweeps != 1 {
		t.Errorf("Sweeps = %d, want 1 (one fused cluster)", st.Sweeps)
	}
	if st.Instructions != 3 || st.FusedInstructions != 3 {
		t.Errorf("Instructions = %d, FusedInstructions = %d, want 3, 3", st.Instructions, st.FusedInstructions)
	}
}

func TestParallelEquivalence(t *testing.T) {
	// Same program, 1 vs 4 workers with a tiny parallel threshold: results
	// must be identical.
	src := `
.reg a0 float64 10000
.reg a1 float64 10000
BH_RANGE a0
BH_MULTIPLY a1 a0 2.0
BH_ADD a1 a1 1.0
BH_SQRT a1 a1
BH_SYNC a1
`
	p := bytecode.MustParse(src)
	serial := New(Config{Workers: 1})
	defer serial.Close()
	parallel := New(Config{Workers: 4, ParallelThreshold: 64})
	defer parallel.Close()
	if err := serial.Run(p.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Run(p.Clone()); err != nil {
		t.Fatal(err)
	}
	v := tensor.NewView(tensor.MustShape(10000))
	a, _ := serial.Tensor(1, v)
	b, _ := parallel.Tensor(1, v)
	if !a.Equal(b) {
		t.Error("parallel execution changed results")
	}
}

func TestParallelFusedEquivalence(t *testing.T) {
	p := bytecode.MustParse(`
BH_IDENTITY a0 [0:50000:1] 1.5
BH_MULTIPLY a0 [0:50000:1] a0 [0:50000:1] a0 [0:50000:1]
BH_ADD a0 [0:50000:1] a0 [0:50000:1] 3
BH_SYNC a0 [0:50000:1]
`)
	fusedPar := New(Config{Workers: 8, Fusion: true, ParallelThreshold: 128})
	defer fusedPar.Close()
	plain := New(Config{Workers: 1})
	defer plain.Close()
	if err := fusedPar.Run(p.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(p.Clone()); err != nil {
		t.Fatal(err)
	}
	v := tensor.NewView(tensor.MustShape(50000))
	a, _ := fusedPar.Tensor(0, v)
	b, _ := plain.Tensor(0, v)
	if !a.Equal(b) {
		t.Error("parallel fused execution changed results")
	}
}
