package vm

import (
	"errors"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/tensor"
)

// TestChaosWatermarkShedsThenDenies pins the graceful-degradation
// policy at the engine level: an allocation pushing live+parked bytes
// over the high watermark sheds the shareable caches (every compiled
// plan, every parked recycle buffer) and succeeds if live bytes alone
// then fit; only an allocation that cannot fit even after the shed is
// denied with ErrMemoryPressure, and the denial undoes its booking.
func TestChaosWatermarkShedsThenDenies(t *testing.T) {
	eng := NewEngine(EngineConfig{MemoryHighWatermark: 1024})
	defer eng.Close()
	m := eng.NewMachine(Config{Fusion: true})
	defer m.Close()

	// Seed the plan cache so the shed has something to drop.
	prog := planTestProg(1)
	pl, err := m.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m.InsertPlan(prog.Fingerprint(), prog.Constants(), true, pl, nil)
	if eng.PlanCacheLen() == 0 {
		t.Fatal("plan cache empty after insert")
	}

	// Registers 0 and 2 are 512 B, 1 and 3 are 1 KiB; each materializes
	// through the same register-file path a sweep takes.
	regs := bytecode.NewProgram()
	for _, n := range []int{64, 128, 64, 128} {
		regs.NewReg(tensor.Float64, n)
	}
	if _, err := m.regs.ensure(regs, 0); err != nil { // 512 B live, fits
		t.Fatal(err)
	}
	if got := eng.LiveBytes(); got != 512 {
		t.Fatalf("live bytes = %d, want 512", got)
	}
	m.regs.free(0) // 0 live, 512 parked

	// 1024 B fresh: live+parked = 1536 > 1024 → shed; live alone fits.
	if _, err := m.regs.ensure(regs, 1); err != nil {
		t.Fatalf("allocation within the watermark denied after shed: %v", err)
	}
	if sheds := eng.MemorySheds(); sheds != 1 {
		t.Fatalf("memory sheds = %d, want 1", sheds)
	}
	if n := eng.PlanCacheLen(); n != 0 {
		t.Fatalf("plan cache holds %d entries after pressure shed, want 0", n)
	}
	if got := eng.LiveBytes(); got != 1024 {
		t.Fatalf("live bytes = %d, want 1024", got)
	}

	// 512 B more cannot fit even with nothing left to shed: denied, and
	// the optimistic booking is undone.
	_, err = m.regs.ensure(regs, 2)
	if !errors.Is(err, ErrMemoryPressure) {
		t.Fatalf("over-watermark allocation: %v, want ErrMemoryPressure", err)
	}
	if !strings.Contains(err.Error(), "high watermark") {
		t.Fatalf("denial does not explain the watermark: %v", err)
	}
	if sheds := eng.MemorySheds(); sheds != 2 {
		t.Fatalf("memory sheds = %d, want 2", sheds)
	}
	if got := eng.LiveBytes(); got != 1024 {
		t.Fatalf("denied allocation leaked its booking: live bytes = %d, want 1024", got)
	}

	// A recycle hit moves parked bytes to live without growing the total,
	// so it can never be denied — even exactly at the watermark.
	m.regs.free(1)
	if _, err := m.regs.ensure(regs, 3); err != nil {
		t.Fatalf("recycle hit denied: %v", err)
	}
	if sheds := eng.MemorySheds(); sheds != 2 {
		t.Fatalf("recycle hit tripped a shed: %d sheds, want 2", sheds)
	}
}

// TestChaosMemoryPressureSurfacesThroughRun pins that ErrMemoryPressure
// survives every layer of wrapping between a register materialization
// deep in a sweep and the error Run returns — the contract the bhd
// daemon's errors.Is mapping to a retryable 503 depends on.
func TestChaosMemoryPressureSurfacesThroughRun(t *testing.T) {
	eng := NewEngine(EngineConfig{MemoryHighWatermark: 1024})
	defer eng.Close()
	m := eng.NewMachine(Config{Fusion: true})
	defer m.Close()

	sized := func(n int) *bytecode.Program {
		p := bytecode.NewProgram()
		a := p.NewReg(tensor.Float64, n)
		v := tensor.NewView(tensor.MustShape(n))
		p.EmitIdentity(bytecode.Reg(a, v), bytecode.Const(bytecode.ConstFloat(1)))
		p.EmitSync(bytecode.Reg(a, v))
		p.MarkOutput(a)
		return p
	}

	err := m.Run(sized(1024)) // 8 KiB register vs a 1 KiB watermark
	if !errors.Is(err, ErrMemoryPressure) {
		t.Fatalf("oversized run: %v, want an ErrMemoryPressure chain", err)
	}
	// The machine is degraded, not dead: a batch that fits still runs.
	if err := m.Run(sized(16)); err != nil {
		t.Fatalf("within-watermark run after a denial: %v", err)
	}
}

// TestChaosAllocFailTargetsLabeledMachine pins the fault-injection
// label plumbing at the vm level: an armed alloc-fail with a label
// strikes only machines configured with that FaultLabel, wraps
// ErrInjected through the execution error chain, and stops the moment
// it is disarmed.
func TestChaosAllocFailTargetsLabeledMachine(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	defer eng.Close()
	victim := eng.NewMachine(Config{Fusion: true, FaultLabel: "victim"})
	bystander := eng.NewMachine(Config{Fusion: true, FaultLabel: "bystander"})
	defer victim.Close()
	defer bystander.Close()
	bindVec(t, victim, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	bindVec(t, bystander, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8})

	disarm := faultinject.Arm(faultinject.AllocFail, faultinject.Fault{Label: "victim"})
	defer disarm()
	if err := victim.Run(planTestProg(1)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("victim run: %v, want an ErrInjected chain", err)
	}
	if err := bystander.Run(planTestProg(1)); err != nil {
		t.Fatalf("bystander run while victim's fault armed: %v", err)
	}

	disarm()
	if err := victim.Run(planTestProg(1)); err != nil {
		t.Fatalf("victim run after disarm: %v", err)
	}
}
