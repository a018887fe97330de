// Package faultinject is the chaos harness behind bhd's overload and
// failure testing: a registry of named failure points compiled into the
// production binary and completely inert until a test arms them. A site
// in the engine, the backend seam, or the server calls one of the hook
// functions (Error, Delay, Panic, Clock) at the place a real fault
// would strike; the hook is a single atomic load when nothing is armed,
// so shipping the sites costs nothing on the hot path.
//
// Faults are deterministic: an armed fault fires at matching sites
// exactly Times times (or until disarmed), under one mutex, so a test
// arming {Times: 1} knows precisely one victim request sees it. Sites
// carry a label — bhd labels every session's sites with its tenant —
// and a fault with a Label fires only at sites carrying that label,
// which is how the chaos suite injects a failure into one tenant and
// proves the others unaffected.
//
// The registry is process-global (the sites it serves are reached
// through package-level code paths); tests that arm faults must not run
// in parallel with each other and should defer the returned disarm.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one failure site. The constants below are every site
// wired into the repo; Arm accepts any Point so hosts can add their
// own.
type Point string

const (
	// AllocFail strikes register buffer materialization in the engine
	// (vm registerFile.acquire): the allocation fails with the fault's
	// error instead of returning a buffer.
	AllocFail Point = "alloc-fail"
	// WorkerPanic strikes plan execution (vm.Plan.Execute): the
	// executing goroutine panics, exercising the recovery paths — the
	// server's panic middleware on the sync path, the executor's
	// containment on the async path.
	WorkerPanic Point = "worker-panic"
	// SlowExec strikes plan execution with the fault's Delay before any
	// work happens — a deliberately slow plan for deadline and overload
	// tests.
	SlowExec Point = "slow-exec"
	// ExecStall strikes an async backend's pipeline loop: the executor
	// goroutine sleeps the fault's Delay before taking the next job, so
	// the queue backs up and admission control must shed.
	ExecStall Point = "executor-stall"
	// JanitorSkew strikes the idle reaper's clock (server.ReapIdle):
	// the observed time is shifted by the fault's Skew, so sessions age
	// out early (positive skew) or never (negative).
	JanitorSkew Point = "janitor-skew"
)

// ErrInjected is the sentinel every injected error wraps (unless the
// fault carries its own Err), so tests can errors.Is their way past any
// wrapping the real error paths add.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault configures one armed point. The zero value fires at every
// matching site forever with the default injected error; most tests set
// Label and Times to pick one victim.
type Fault struct {
	// Label restricts the fault to sites carrying this label (bhd labels
	// a session's engine sites with its tenant, the janitor site is
	// "janitor"). Empty matches every site.
	Label string
	// Times caps how often the fault fires; 0 means until disarmed.
	Times int
	// Err is what Error sites return; nil selects ErrInjected wrapped
	// with Msg.
	Err error
	// Delay is how long Delay sites sleep.
	Delay time.Duration
	// Skew is how far Clock sites shift the observed time.
	Skew time.Duration
	// Msg customizes the default error/panic text.
	Msg string
}

// armedCount gates every hook: zero means nothing is armed anywhere and
// the hook returns after one atomic load.
var armedCount atomic.Int64

var (
	mu    sync.Mutex
	table = map[Point]*entry{}
	fired = map[Point]int{}
)

type entry struct {
	f    Fault
	left int // remaining fires; -1 = unlimited
}

// Arm installs f at point p (replacing any fault already armed there)
// and returns its idempotent disarm. Tests defer the disarm so a
// failing test cannot leak an armed fault into the next one.
func Arm(p Point, f Fault) (disarm func()) {
	mu.Lock()
	if table[p] == nil {
		armedCount.Add(1)
	}
	left := f.Times
	if left <= 0 {
		left = -1
	}
	table[p] = &entry{f: f, left: left}
	mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			if table[p] != nil {
				delete(table, p)
				armedCount.Add(-1)
			}
			mu.Unlock()
		})
	}
}

// Reset disarms every point and zeroes the fired counters — a test
// suite's belt-and-suspenders teardown.
func Reset() {
	mu.Lock()
	armedCount.Add(int64(-len(table)))
	table = map[Point]*entry{}
	fired = map[Point]int{}
	mu.Unlock()
}

// Fired reports how many times point p has fired since the last Reset,
// so tests can assert a fault struck exactly once.
func Fired(p Point) int {
	mu.Lock()
	defer mu.Unlock()
	return fired[p]
}

// fire consumes one firing of p at a site labeled label, if a matching
// fault is armed with fires remaining.
func fire(p Point, label string) (Fault, bool) {
	if armedCount.Load() == 0 {
		return Fault{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	e := table[p]
	if e == nil || (e.f.Label != "" && e.f.Label != label) || e.left == 0 {
		return Fault{}, false
	}
	if e.left > 0 {
		e.left--
	}
	fired[p]++
	return e.f, true
}

// Error is the hook for sites whose real failure mode is an error
// return: nil when p is not armed for this site, the fault's error when
// it fires.
func Error(p Point, label string) error {
	f, ok := fire(p, label)
	if !ok {
		return nil
	}
	if f.Err != nil {
		return f.Err
	}
	msg := f.Msg
	if msg == "" {
		msg = string(p)
	}
	return fmt.Errorf("%w: %s", ErrInjected, msg)
}

// Delay is the hook for sites whose real failure mode is slowness: it
// sleeps the fault's Delay when armed and returns immediately
// otherwise.
func Delay(p Point, label string) {
	if f, ok := fire(p, label); ok && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// Panic is the hook for sites whose real failure mode is a crashing
// goroutine: it panics when the fault fires.
func Panic(p Point, label string) {
	if f, ok := fire(p, label); ok {
		msg := f.Msg
		if msg == "" {
			msg = string(p)
		}
		panic(fmt.Sprintf("faultinject: %s: %s", p, msg))
	}
}

// Clock is the hook for sites whose real failure mode is a skewed
// clock: it returns t shifted by the fault's Skew when armed, t
// unchanged otherwise.
func Clock(p Point, label string, t time.Time) time.Time {
	if f, ok := fire(p, label); ok {
		return t.Add(f.Skew)
	}
	return t
}
