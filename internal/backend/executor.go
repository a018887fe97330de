package backend

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/vm"
)

// Executor runs backend plans on a background goroutine so a front end
// can record batch N+1 while batch N executes. Exactly one goroutine
// (the "recorder") may call Submit, SubmitCtx, Wait, WaitCtx and Close;
// the executor goroutine is the only one driving the backend's register
// state while jobs are in flight. The recorder keeps ownership of plan
// lookup and compilation — both are register-free.
//
// The first execution error poisons the pipeline: queued and future jobs
// are skipped, and Wait (and every later Wait) returns that error. The
// register file may hold partial results, exactly as after a failed
// synchronous Execute. A panic while executing a queued plan is
// converted into a sticky pipeline error too — the failure belongs to
// the session that submitted the plan, never to the process.
type Executor struct {
	b     *Backend // immutable after NewExecutor
	label string   // immutable after NewExecutor: faultinject site label (the host's tenant name)
	jobs  chan job // immutable after NewExecutor (the channel; Close closes it under mu)
	wg    sync.WaitGroup
	done  chan struct{} // immutable after NewExecutor
	// pending counts submitted-not-yet-finished plans (queued or in
	// flight) for admission control and monitoring.
	pending atomic.Int64

	mu     sync.Mutex
	err    error // guarded by mu
	closed bool  // guarded by mu
	// quiet is closed when pending drops to zero; created lazily on the
	// 0→1 transition. WaitCtx snapshots it so a deadline-bounded wait
	// can select against cancellation without consuming wg state.
	// guarded by mu.
	quiet chan struct{}
}

// job is one queued plan and the constant vector it runs under (nil: its
// own).
type job struct {
	pl     Plan
	consts []bytecode.Constant
}

// NewExecutor starts a background executor for b with the given queue
// depth (0 selects vm.DefaultAsyncDepth). label names the session for
// fault-injection targeting (empty matches any armed fault). Close the
// executor before closing the backend: the backend must outlive every
// in-flight plan.
func NewExecutor(b *Backend, depth int, label string) *Executor {
	if depth <= 0 {
		depth = vm.DefaultAsyncDepth
	}
	e := &Executor{b: b, label: label, jobs: make(chan job, depth), done: make(chan struct{})}
	go e.loop()
	return e
}

func (e *Executor) loop() {
	defer close(e.done)
	for j := range e.jobs {
		faultinject.Delay(faultinject.ExecStall, e.label)
		if e.Err() == nil {
			e.b.m.CountPipelined()
			if err := e.execOne(j); err != nil {
				e.mu.Lock()
				if e.err == nil {
					e.err = err
				}
				e.mu.Unlock()
			}
		}
		e.finishOne()
	}
}

// execOne executes a single queued plan, converting a panic (a backend
// bug, an injected worker-panic fault) into a pipeline error instead of
// killing the whole process.
func (e *Executor) execOne(j job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: panic during pipelined execution: %v", vm.ErrExec, v)
		}
	}()
	return e.b.ExecuteWith(j.pl, j.consts)
}

// noteSubmit books one plan into the pending account before the enqueue
// attempt; pair with finishOne on completion OR on a failed SubmitCtx.
func (e *Executor) noteSubmit() {
	e.wg.Add(1)
	e.mu.Lock()
	if e.pending.Add(1) == 1 {
		e.quiet = make(chan struct{})
	}
	e.mu.Unlock()
}

// finishOne retires one booked plan, closing the quiet channel when the
// pipeline goes idle.
func (e *Executor) finishOne() {
	e.mu.Lock()
	if e.pending.Add(-1) == 0 && e.quiet != nil {
		close(e.quiet)
		e.quiet = nil
	}
	e.mu.Unlock()
	e.wg.Done()
}

// Submit queues one plan for background execution under consts (nil: its
// own), as Resolution gives them. Neither may be mutated afterwards —
// plans never are, and Resolution.Consts is the host's own copy. Submit
// blocks only when the queue is full (backpressure), never on execution
// itself.
func (e *Executor) Submit(pl Plan, consts []bytecode.Constant) {
	e.noteSubmit()
	e.jobs <- job{pl, consts}
}

// SubmitCtx queues one plan like Submit, but gives the backpressure
// block a deadline: when the queue is full and ctx expires (or is
// canceled) before a slot frees, the plan is NOT queued and the ctx
// error is returned wrapped — the pipeline's committed work is
// untouched, so the caller can shed this one submission as retryable.
// A nil error means the plan is queued exactly as Submit would have.
func (e *Executor) SubmitCtx(ctx context.Context, pl Plan, consts []bytecode.Constant) error {
	e.noteSubmit()
	j := job{pl, consts}
	select {
	case e.jobs <- j:
		return nil
	default:
	}
	select {
	case e.jobs <- j:
		return nil
	case <-ctx.Done():
		e.finishOne()
		return fmt.Errorf("executor queue full (depth %d): %w", cap(e.jobs), ctx.Err())
	}
}

// Pending reports how many submitted plans have not yet finished
// executing or being skipped (queued plus in flight). The value is a
// racy snapshot from any goroutine except the recorder's own
// synchronization points — right after Wait or Close it is exactly
// zero. Hosts use it for admission control: the bhd daemon's
// max-queued-batches quota counts a tenant's pending plans through it.
func (e *Executor) Pending() int { return int(e.pending.Load()) }

// Wait blocks until every submitted plan has executed (or been skipped
// after a failure) and returns the pipeline's first execution error. The
// error is sticky: once a plan fails, every subsequent Wait reports it.
func (e *Executor) Wait() error {
	e.wg.Wait()
	return e.Err()
}

// WaitCtx is Wait with a deadline: it returns the sticky pipeline error
// once every submitted plan has finished, or ctx.Err() when ctx expires
// first. Cancellation abandons only the WAIT — queued and in-flight
// plans keep executing and their results land normally, so a later
// Wait/WaitCtx observes them; nothing in flight is ever canceled.
func (e *Executor) WaitCtx(ctx context.Context) error {
	e.mu.Lock()
	ch := e.quiet
	e.mu.Unlock()
	if ch == nil {
		return e.Err()
	}
	select {
	case <-ch:
		return e.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the sticky pipeline error without waiting.
func (e *Executor) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Close drains the queue, stops the executor goroutine, and returns the
// sticky pipeline error. Close is idempotent; Submit must not be called
// afterwards.
func (e *Executor) Close() error {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	if !already {
		e.wg.Wait()
		close(e.jobs)
	}
	<-e.done
	return e.Err()
}
