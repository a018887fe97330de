package backend

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bohrium/internal/faultinject"
	"bohrium/internal/vm"
)

// TestChaosSubmitCtxShedsOnFullQueue pins deadline-bounded admission at
// the backend seam: with the queue full behind a stalled executor, a
// Submit whose context expires sheds ONLY its own submission — the ctx
// error comes back wrapped, the queued work is untouched, and the
// pipeline drains clean.
func TestChaosSubmitCtxShedsOnFullQueue(t *testing.T) {
	ref2, ref3 := runChain(t, 64)

	ctx := context.Background()
	b := openTest(t, Config{VM: vm.Config{Fusion: true, FaultLabel: "stall-victim"}, Async: true, AsyncDepth: 1})
	pl, err := b.Compile(chainProg(64, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(64))

	disarm := faultinject.Arm(faultinject.ExecStall, faultinject.Fault{
		Label: "stall-victim", Delay: 300 * time.Millisecond, Times: 1,
	})
	defer disarm()
	b.Submit(ctx, pl, nil)            // dequeued immediately, then stalls
	time.Sleep(20 * time.Millisecond) // let the executor enter the stall
	b.Submit(ctx, pl, nil)            // fills the depth-1 queue
	sctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	serr := b.Submit(sctx, pl, nil)
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("submit into a full queue: %v, want a DeadlineExceeded chain", serr)
	}
	if !strings.Contains(serr.Error(), "executor queue full") {
		t.Fatalf("shed error does not name the full queue: %v", serr)
	}

	// The shed submission left no trace: both admitted plans execute,
	// the pipeline ends clean, and the results match the reference.
	if err := b.Wait(ctx); err != nil {
		t.Fatalf("wait after a shed submission: %v", err)
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("pending = %d after wait, want 0 (shed submission still booked?)", n)
	}
	got2, got3 := regVals(t, b, 2, 64), regVals(t, b, 3, 1)
	for i := range ref2 {
		if got2[i] != ref2[i] {
			t.Fatalf("a2[%d] = %v, want %v", i, got2[i], ref2[i])
		}
	}
	if got3[0] != ref3[0] {
		t.Fatalf("a3 = %v, want %v", got3[0], ref3[0])
	}
}

// TestChaosWaitCtxHonorsCancelWithoutKillingWork pins the wait side of
// the deadline contract: Wait returns the ctx error when the fence
// outruns its deadline, but abandoning the wait cancels nothing — the
// slow plan completes, a later unbounded Wait observes it, and an idle
// pipeline's Wait returns immediately.
func TestChaosWaitCtxHonorsCancelWithoutKillingWork(t *testing.T) {
	ref2, ref3 := runChain(t, 64)

	ctx := context.Background()
	b := openTest(t, Config{VM: vm.Config{Fusion: true, FaultLabel: "slow-victim"}, Async: true})
	pl, err := b.Compile(chainProg(64, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(64))

	disarm := faultinject.Arm(faultinject.SlowExec, faultinject.Fault{
		Label: "slow-victim", Delay: 300 * time.Millisecond, Times: 1,
	})
	defer disarm()
	if err := b.Submit(ctx, pl, nil); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if werr := b.Wait(wctx); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("fence against a slow plan: %v, want a DeadlineExceeded chain", werr)
	}

	if err := b.Wait(ctx); err != nil {
		t.Fatalf("unbounded wait after an abandoned fence: %v", err)
	}
	got2, got3 := regVals(t, b, 2, 64), regVals(t, b, 3, 1)
	for i := range ref2 {
		if got2[i] != ref2[i] {
			t.Fatalf("a2[%d] = %v, want %v (abandoned fence corrupted execution?)", i, got2[i], ref2[i])
		}
	}
	if got3[0] != ref3[0] {
		t.Fatalf("a3 = %v, want %v", got3[0], ref3[0])
	}
	// Idle pipeline: Wait needs no deadline headroom at all.
	expired, cancelNow := context.WithCancel(ctx)
	cancelNow()
	if werr := b.Wait(expired); werr != nil {
		t.Fatalf("idle Wait: %v", werr)
	}
}

// TestChaosExecutorPanicBecomesStickyError pins async panic containment:
// a panic while the background executor runs a queued plan becomes the
// pipeline's sticky ErrExec-wrapped error — reported by every Wait and
// by Err — instead of killing the process.
func TestChaosExecutorPanicBecomesStickyError(t *testing.T) {
	ctx := context.Background()
	b := openTest(t, Config{VM: vm.Config{Fusion: true, FaultLabel: "sess"}, Async: true, AsyncDepth: 2})
	pl, err := b.Compile(chainProg(64, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(64))

	disarm := faultinject.Arm(faultinject.WorkerPanic, faultinject.Fault{Label: "sess", Times: 1})
	defer disarm()
	if err := b.Submit(ctx, pl, nil); err != nil {
		t.Fatal(err)
	}
	werr := b.Wait(ctx)
	if !errors.Is(werr, vm.ErrExec) {
		t.Fatalf("wait after injected panic: %v, want an ErrExec chain", werr)
	}
	if !strings.Contains(werr.Error(), "panic during pipelined execution") {
		t.Fatalf("pipeline error does not name the recovered panic: %v", werr)
	}
	if again := b.Wait(ctx); again == nil || again.Error() != werr.Error() {
		t.Fatalf("sticky error changed across waits: %v then %v", werr, again)
	}
	if eerr := b.Err(); eerr == nil || eerr.Error() != werr.Error() {
		t.Fatalf("Err lost the sticky error: %v", eerr)
	}
}
