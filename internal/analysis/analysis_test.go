package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture materializes files (path → source) as a module named
// bohrium in a temp dir and loads it. Fixture packages sit at the same
// module-relative paths as the real tree so analyzer Scopes are
// exercised, not bypassed.
func loadFixture(t *testing.T, files map[string]string) *Module {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module bohrium\n\ngo 1.24\n"
	for path, src := range files {
		abs := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(abs, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return mod
}

// runOn runs one analyzer over a fixture and returns findings as
// "relpath:line" strings, sorted.
func runOn(t *testing.T, a *Analyzer, files map[string]string) []string {
	t.Helper()
	mod := loadFixture(t, files)
	var got []string
	for _, d := range Run(mod, []*Analyzer{a}) {
		rel, err := filepath.Rel(mod.Root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Pos.Line))
	}
	return got
}

func wantFindings(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("findings\n got: %v\nwant: %v", got, want)
	}
}

func TestErrwrap(t *testing.T) {
	got := runOn(t, Errwrap, map[string]string{
		"internal/vm/err.go": `package vm

import (
	"errors"
	"fmt"
)

var errBase = errors.New("base")

func bad(err error) error  { return fmt.Errorf("ctx: %v", err) }
func bad2(err error) error { return fmt.Errorf("%w: got %s", errBase, err) }
func good(err error) error { return fmt.Errorf("ctx: %w", err) }
func notErr(n int) error   { return fmt.Errorf("n=%v", n) }
func escape(err error) error {
	return fmt.Errorf("100%% failed: %w", err)
}
`,
		// Out of scope: same bug in an unscoped package is not reported.
		"internal/tensor/err.go": `package tensor

import "fmt"

func bad(err error) error { return fmt.Errorf("ctx: %v", err) }
`,
	})
	wantFindings(t, got, []string{
		"internal/vm/err.go:10",
		"internal/vm/err.go:11",
	})
}

func TestGuardedfield(t *testing.T) {
	got := runOn(t, Guardedfield, map[string]string{
		"internal/vm/counter.go": `package vm

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	m  int // line 8: no annotation on a mutex-carrying struct
	x  int // guarded by nosuch (line 9: dangling guard name)
	k  int // immutable after construction
}

func (c *counter) bump() { c.n++ } // line 13: no lock held

func (c *counter) good() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// bumpLocked increments. Caller holds mu.
func (c *counter) bumpLocked() { c.n++ }

func fresh() *counter {
	c := &counter{}
	c.n = 1 // constructor: the value is unshared
	return c
}
`,
		"internal/vm/sem.go": `package vm

type gate struct {
	sem chan struct{} // 1-slot lock
	v   int           // guarded by sem
}

func (g *gate) lock()   { g.sem <- struct{}{} }
func (g *gate) unlock() { <-g.sem }

func (g *gate) bad() int { return g.v } // line 11: no sem held

func (g *gate) viaSend() int {
	g.sem <- struct{}{}
	defer func() { <-g.sem }()
	return g.v
}

func (g *gate) viaHelper() int {
	g.lock()
	defer g.unlock()
	return g.v
}
`,
	})
	wantFindings(t, got, []string{
		"internal/vm/counter.go:8",
		"internal/vm/counter.go:9",
		"internal/vm/counter.go:13",
		"internal/vm/sem.go:11",
	})
}

func TestAtomicfield(t *testing.T) {
	got := runOn(t, Atomicfield, map[string]string{
		"internal/vm/stats.go": `package vm

import "sync/atomic"

type stats struct {
	ops    atomic.Int64
	shards [4]atomic.Int64
}

func good(s *stats) int64 {
	s.ops.Add(1)
	s.shards[0].Add(1)
	total := int64(0)
	for i := range s.shards {
		total += s.shards[i].Load()
	}
	_ = len(s.shards)
	return total + s.ops.Load()
}

func badCopy(s *stats) int64 {
	v := s.ops // line 22: copies the atomic
	return v.Load()
}

func badAddr(s *stats) *atomic.Int64 {
	return &s.ops // line 27: address escapes the atomic API
}

func badRange(s *stats) int64 {
	total := int64(0)
	for _, v := range s.shards { // line 32: element-wise range copies
		total += v.Load()
	}
	return total
}
`,
	})
	wantFindings(t, got, []string{
		"internal/vm/stats.go:22",
		"internal/vm/stats.go:27",
		"internal/vm/stats.go:32",
	})
}

func TestCtxflow(t *testing.T) {
	got := runOn(t, Ctxflow, map[string]string{
		"internal/server/sess.go": `package server

import "context"

type sess struct {
	sem chan struct{}
}

func (s *sess) lock() { s.sem <- struct{}{} }

func (s *sess) lockCtx(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func handler(ctx context.Context, s *sess) {
	ctx2 := context.Background() // line 21: fresh root inside a ctx fn
	_ = ctx2
	s.lock() // line 23: context-blind call with a lockCtx sibling
}

func goodHandler(ctx context.Context, s *sess) {
	if !s.lockCtx(ctx) {
		return
	}
	<-s.sem
}

func noCtx(s *sess) {
	_ = context.Background() // fine: this function received no ctx
	s.lock()                 // fine for the same reason
}
`,
	})
	wantFindings(t, got, []string{
		"internal/server/sess.go:21",
		"internal/server/sess.go:23",
	})
}

func TestWirecontract(t *testing.T) {
	got := runOn(t, Wirecontract, map[string]string{
		"internal/server/api/api.go": `package api

const (
	CodeInternal = "internal"
	CodeQuota    = "quota"
)

type Error struct{ Code string }

func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Code: code}
}
`,
		"internal/faultinject/faultinject.go": `package faultinject

type Point string

const (
	PointAllocFail   Point = "alloc-fail"
	PointWorkerPanic Point = "worker-panic"
)

func Hook(p Point) func() { return nil }
`,
		"internal/server/handlers.go": `package server

import (
	"bohrium/internal/faultinject"
	"bohrium/internal/server/api"
)

func errs() {
	_ = api.Errorf(500, api.CodeInternal, "fine")
	_ = api.Errorf(500, "oops", "line 10: stringly code")
	_ = faultinject.Hook(faultinject.PointAllocFail)
	_ = faultinject.Hook("alloc-fial") // line 12: typo'd point
	code := dynamicCode()
	_ = api.Errorf(500, code, "fine: not a constant")
}

func dynamicCode() string { return "internal" }
`,
	})
	wantFindings(t, got, []string{
		"internal/server/handlers.go:10",
		"internal/server/handlers.go:12",
	})
}

func TestBoundary(t *testing.T) {
	got := runOn(t, Boundary, map[string]string{
		"internal/vm/vm.go": `package vm

type Machine struct{}
type Engine struct{}
type Config struct{}

const DefaultAsyncDepth = 8

func NewEngine() *Engine { return nil }
`,
		"internal/linalg/linalg.go": `package linalg

func Solve() {}
`,
		"internal/faultinject/faultinject.go": `package faultinject

func Error() error { return nil }
`,
		"front.go": `package bohrium

import (
	"bohrium/internal/faultinject" // line 4: a testing cross-cut
	"bohrium/internal/linalg"      // line 5: crosses the backend seam
	"bohrium/internal/vm"
)

type Context struct {
	eng *vm.Engine
	m   *vm.Machine // line 11: past the engine surface
}

func New(cfg vm.Config) *Context {
	linalg.Solve()
	_ = faultinject.Error()
	_ = vm.DefaultAsyncDepth // line 17: a default the front end has no setting for
	return &Context{eng: vm.NewEngine()}
}
`,
	})
	wantFindings(t, got, []string{
		"front.go:4",
		"front.go:5",
		"front.go:11",
		"front.go:17",
	})
}

// TestScopes pins each analyzer's package scope: the concurrency and
// wire checks are repo-wide or layer-wide exactly as documented.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		rel      string
		want     bool
	}{
		{Errwrap, "internal/vm", true},
		{Errwrap, "internal/server/middleware", true},
		{Errwrap, "internal/tensor", false},
		{Errwrap, "", false},
		{Guardedfield, "internal/anything", true},
		{Atomicfield, "", true},
		{Ctxflow, "internal/server", true},
		{Ctxflow, "internal/vm", false},
		{Wirecontract, "cmd/bhd", true},
		{Boundary, "", true},
		{Boundary, "internal/vm", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.rel); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.rel, got, c.want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	mod := loadFixture(t, map[string]string{
		"internal/vm/err.go": `package vm

import "fmt"

func bad(err error) error { return fmt.Errorf("ctx: %v", err) }
`,
	})
	diags := Run(mod, []*Analyzer{Errwrap})
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1", len(diags))
	}
	s := diags[0].String()
	if !strings.Contains(s, "err.go:5: [errwrap] ") {
		t.Errorf("diagnostic %q lacks the file:line: [analyzer] form", s)
	}
}
