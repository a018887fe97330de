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

// executor is an async Backend's pipeline: it runs submitted plans on a
// background goroutine so a host can record batch N+1 while batch N
// executes. Only the goroutine driving the Backend calls submit, wait
// and close; the executor goroutine is the only one driving the
// machine's register state while jobs are in flight. Plan lookup and
// compilation stay with the driving goroutine — both are register-free.
//
// The first execution error poisons the pipeline: queued and future jobs
// are skipped, and every later wait returns that error. The register
// file may hold partial results, exactly as after a failed synchronous
// Submit. A panic while executing a queued plan is converted into a
// sticky pipeline error too — the failure belongs to the session that
// submitted the plan, never to the process.
type executor struct {
	m     *vm.Machine   // immutable after newExecutor
	label string        // immutable after newExecutor: the machine's faultinject label
	depth int           // immutable after newExecutor: the queue capacity
	jobs  chan job      // immutable after newExecutor (the channel; close closes it)
	done  chan struct{} // immutable after newExecutor
	// pending counts submitted-not-yet-finished plans (queued or in
	// flight) for admission control and monitoring.
	pending atomic.Int64

	mu  sync.Mutex
	err error // guarded by mu
	// quiet is closed when pending drops to zero; created on the 0→1
	// transition. wait snapshots it so a deadline-bounded wait can select
	// against cancellation. guarded by mu.
	quiet chan struct{}
}

// job is one queued plan and the constant vector it runs under (nil: its
// own).
type job struct {
	pl     Plan
	consts []bytecode.Constant
}

// newExecutor starts the pipeline of machine m, opened under cfg: its
// fault-injection label is cfg.VM.FaultLabel and its queue depth
// cfg.AsyncDepth (0 selects vm.DefaultAsyncDepth).
func newExecutor(m *vm.Machine, cfg Config) *executor {
	depth := cfg.AsyncDepth
	if depth <= 0 {
		depth = vm.DefaultAsyncDepth
	}
	e := &executor{m: m, label: cfg.VM.FaultLabel, depth: depth, jobs: make(chan job, depth), done: make(chan struct{})}
	go e.loop()
	return e
}

func (e *executor) loop() {
	defer close(e.done)
	for j := range e.jobs {
		faultinject.Delay(faultinject.ExecStall, e.label)
		if e.Err() == nil {
			e.m.CountPipelined()
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
func (e *executor) execOne(j job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: panic during pipelined execution: %v", vm.ErrExec, v)
		}
	}()
	return j.pl.Execute(e.m, j.consts)
}

// finishOne retires one booked plan, closing the quiet channel when the
// pipeline goes idle.
func (e *executor) finishOne() {
	e.mu.Lock()
	if e.pending.Add(-1) == 0 && e.quiet != nil {
		close(e.quiet)
		e.quiet = nil
	}
	e.mu.Unlock()
}

// submit queues one plan under consts. It blocks only while the queue is
// full (backpressure); when ctx ends first, the plan is NOT queued and
// the ctx error comes back wrapped, leaving the committed work untouched.
func (e *executor) submit(ctx context.Context, pl Plan, consts []bytecode.Constant) error {
	e.mu.Lock()
	if e.pending.Add(1) == 1 {
		e.quiet = make(chan struct{})
	}
	e.mu.Unlock()
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
		return fmt.Errorf("executor queue full (depth %d): %w", e.depth, ctx.Err())
	}
}

// wait returns the sticky pipeline error once every submitted plan has
// finished, or ctx.Err() when ctx ends first.
func (e *executor) wait(ctx context.Context) error {
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
func (e *executor) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// close drains the queue and stops the executor goroutine.
func (e *executor) close() {
	e.wait(context.Background())
	close(e.jobs)
	<-e.done
}
