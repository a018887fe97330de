package analysis

import "testing"

// TestRegressionCorpus replays one past-PR bug class per analyzer: each
// fixture is the minimal shape of a defect this repo actually shipped
// (or caught in review) before the analyzer existed. If an analyzer
// stops firing on its fixture, the regression the suite was built to
// block is open again.
func TestRegressionCorpus(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		files    map[string]string
		want     []string
	}{
		{
			// The compile-path wrap bug fixed in this PR's sweep:
			// ErrExec chained with %w but the cause flattened with %v,
			// so errors.Is(err, cause) stopped matching below the
			// sentinel. Shape taken from vm/plan.go.
			name:     "errwrap-flattened-cause",
			analyzer: Errwrap,
			files: map[string]string{
				"internal/vm/plan.go": `package vm

import (
	"errors"
	"fmt"
)

var ErrExec = errors.New("exec")

func compile(err error) error {
	return fmt.Errorf("%w: %v", ErrExec, err)
}
`,
			},
			want: []string{"internal/vm/plan.go:11"},
		},
		{
			// The async-executor sticky-error class: the background
			// worker records the first failure, but a fast-path reader
			// peeks at err without taking mu — a data race that reports
			// success for an already-poisoned pipeline.
			name:     "guardedfield-sticky-error-unlocked",
			analyzer: Guardedfield,
			files: map[string]string{
				"internal/vm/async.go": `package vm

import "sync"

type Executor struct {
	mu  sync.Mutex
	err error // guarded by mu
}

func (e *Executor) poisoned() bool { return e.err != nil }

func (e *Executor) Wait() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
`,
			},
			want: []string{"internal/vm/async.go:10"},
		},
		{
			// The drain-accounting class: snapshotting the in-flight
			// counter by value instead of Load() — the copy is a torn,
			// frozen read, and vet's copylocks only catches some shapes.
			name:     "atomicfield-counter-copied",
			analyzer: Atomicfield,
			files: map[string]string{
				"internal/backend/exec.go": `package backend

import "sync/atomic"

type Executor struct {
	pending atomic.Int64
}

func (e *Executor) idle() bool {
	p := e.pending
	return p.Load() == 0
}
`,
			},
			want: []string{"internal/backend/exec.go:10"},
		},
		{
			// The hung-handler class lockCtx was built to kill: a
			// deadline-bearing handler acquiring the session with the
			// unconditional lock, so one slow batch turns the next
			// request into a hang instead of a structured 503.
			name:     "ctxflow-unbounded-lock-in-handler",
			analyzer: Ctxflow,
			files: map[string]string{
				"internal/server/handler.go": `package server

import "context"

type session struct {
	sem chan struct{}
}

func (s *session) lock() { s.sem <- struct{}{} }

func (s *session) lockCtx(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func handleBatch(ctx context.Context, s *session) {
	s.lock()
	defer func() { <-s.sem }()
}
`,
			},
			want: []string{"internal/server/handler.go:21"},
		},
		{
			// The stringly-wire-code class: an envelope built with an
			// ad-hoc code string no client (and no differential test)
			// recognizes, instead of the declared constant.
			name:     "wirecontract-adhoc-code",
			analyzer: Wirecontract,
			files: map[string]string{
				"internal/server/api/api.go": `package api

const CodeQuota = "quota"

func Errorf(status int, code, format string, args ...any) error {
	return nil
}
`,
				"internal/server/quota.go": `package server

import "bohrium/internal/server/api"

func reject() error {
	return api.Errorf(429, "quota_exceeded", "over budget")
}
`,
			},
			want: []string{"internal/server/quota.go:6"},
		},
		{
			// The seam-bypass class the backend refactor's boundary test
			// was written against: the front end compiling through
			// vm.Machine directly, skipping the backend's Resolver and
			// Executor.
			name:     "boundary-front-end-touches-machine",
			analyzer: Boundary,
			files: map[string]string{
				"internal/vm/vm.go": `package vm

type Machine struct{}

func NewMachine() *Machine { return nil }
`,
				"context.go": `package bohrium

import "bohrium/internal/vm"

type Context struct {
	m *vm.Machine
}

func NewContext() *Context {
	return &Context{m: vm.NewMachine()}
}
`,
			},
			want: []string{"context.go:6", "context.go:10"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantFindings(t, runOn(t, c.analyzer, c.files), c.want)
		})
	}
}
