package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"bohrium"
	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/server"
	"bohrium/internal/server/api"
	"bohrium/internal/server/middleware"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// syncFormat mirrors the format the server (and bhrun) prints registers
// with — the differential suites compare its output byte-for-byte.
var syncFormat = tensor.FormatOptions{MaxPerDim: 10, Precision: 6}

// newTestServer builds a daemon on a fresh private runtime and hosts it
// with httptest. The janitor is disabled (tests drive ReapIdle through
// the injected clock when they need it). Every test built this way gets
// the leak check for free: after the HTTP server, the daemon, and the
// runtime have closed, the goroutine count must return to its pre-test
// baseline and the runtime's session registry must be empty.
func newTestServer(t *testing.T, mutate func(*server.Config)) (*httptest.Server, *server.Server) {
	return newTestServerRT(t, nil, mutate)
}

// newTestServerRT is newTestServer with an explicit runtime
// configuration, for tests that need engine-level knobs (the memory
// high watermark).
func newTestServerRT(t *testing.T, rtCfg *bohrium.RuntimeConfig, mutate func(*server.Config)) (*httptest.Server, *server.Server) {
	t.Helper()
	leakCheck(t) // registered first, so it runs after every teardown below
	rt := bohrium.NewRuntime(rtCfg)
	t.Cleanup(rt.Close)
	cfg := server.Config{
		Runtime: rt,
		Auth: middleware.StaticTokens{
			"secret-a": "tenant-a",
			"secret-b": "tenant-b",
		},
		JanitorInterval: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		if n := rt.SessionCount(); n != 0 {
			t.Errorf("runtime still has %d registered session(s) after server close", n)
		}
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, srv
}

// client drives the wire protocol for one tenant.
type client struct {
	t     *testing.T
	base  string
	token string
}

// do performs one request, returning the status and raw body.
func (c *client) do(method, path string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, data
}

// expect performs a request that must succeed with wantStatus, decoding
// the response into out (when non-nil).
func (c *client) expect(method, path string, body []byte, wantStatus int, out any) {
	c.t.Helper()
	status, data := c.do(method, path, body)
	if status != wantStatus {
		c.t.Fatalf("%s %s: status %d, want %d; body:\n%s", method, path, status, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: decoding response: %v; body:\n%s", method, path, err, data)
		}
	}
}

// expectError performs a request that must fail with the given status
// and envelope code, returning the envelope.
func (c *client) expectError(method, path string, body []byte, wantStatus int, wantCode string) *api.Error {
	c.t.Helper()
	status, data := c.do(method, path, body)
	apiErr, err := api.DecodeError(data)
	if err != nil {
		c.t.Fatalf("%s %s: status %d, no envelope: %v; body:\n%s", method, path, status, err, data)
	}
	if status != wantStatus || apiErr.Code != wantCode || apiErr.Status != status {
		c.t.Fatalf("%s %s: got status %d code %q (envelope status %d), want %d %q",
			method, path, status, apiErr.Code, apiErr.Status, wantStatus, wantCode)
	}
	return apiErr
}

func (c *client) createSession(req api.CreateSession) api.Session {
	c.t.Helper()
	body, _ := json.Marshal(req)
	var sess api.Session
	c.expect("POST", "/v1/sessions", body, http.StatusCreated, &sess)
	return sess
}

func (c *client) submit(id, src string, wantStatus int) api.BatchResult {
	c.t.Helper()
	var res api.BatchResult
	c.expect("POST", "/v1/sessions/"+id+"/batches", []byte(src), wantStatus, &res)
	return res
}

func (c *client) array(id, reg string) api.Array {
	c.t.Helper()
	var arr api.Array
	c.expect("GET", "/v1/sessions/"+id+"/arrays/"+reg, nil, http.StatusOK, &arr)
	return arr
}

// listings returns every committed examples/*/listing.bh source.
func listings(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "listing.bh"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example listings found")
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(filepath.Dir(p))] = string(src)
	}
	return out
}

// directRun executes a listing straight through a backend on a
// private engine — the in-process reference the HTTP path must match
// byte-for-byte. It returns the BH_SYNCed registers (formatted through
// the sync view, as the batch response reports them) and every named
// register's full-view text (as the array endpoint reports it).
func directRun(t *testing.T, src string, optimize bool) ([]api.SyncedRegister, map[string]string) {
	t.Helper()
	eng := vm.NewEngine(vm.EngineConfig{})
	defer eng.Close()
	be := backend.New(eng, backend.Config{VM: vm.Config{Fusion: true}})
	defer be.Close()

	prog, names, err := bytecode.ParseNames(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if optimize {
		optimized, _, err := rewrite.Default().Optimize(prog)
		if err != nil {
			t.Fatal(err)
		}
		prog = optimized
	}
	plan, err := be.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Execute(plan); err != nil {
		t.Fatal(err)
	}

	rev := make(map[bytecode.RegID]string, len(names))
	for name, id := range names {
		rev[id] = name
	}
	var synced []api.SyncedRegister
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Op != bytecode.OpSync {
			continue
		}
		name, ok := rev[in.Out.Reg]
		if !ok {
			name = in.Out.Reg.String()
		}
		sr := api.SyncedRegister{Reg: name}
		if tn, ok := be.Tensor(in.Out.Reg, in.Out.View); ok {
			sr.Text = tn.Format(syncFormat)
		} else {
			sr.Text = "<freed>"
		}
		synced = append(synced, sr)
	}

	arrays := map[string]string{}
	for name, id := range names {
		info, ok := prog.Reg(id)
		if !ok {
			continue
		}
		if tn, ok := be.Tensor(id, tensor.NewView(tensor.MustShape(info.Len))); ok {
			arrays[name] = tn.Format(syncFormat)
		}
	}
	return synced, arrays
}

// TestDifferentialListingsOverHTTP is the end-to-end differential
// contract of the daemon: every committed example listing, submitted
// over HTTP to a bhd-hosted session, must produce byte-identical
// register text to the same listing executed directly through a
// backend, with the optimizer off and on, synchronously and through the
// async pipeline (where reads fence first).
func TestDifferentialListingsOverHTTP(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	c := &client{t: t, base: hs.URL, token: "secret-a"}

	for name, src := range listings(t) {
		t.Run(name, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				wantSynced, wantArrays := directRun(t, src, optimize)
				if len(wantSynced) == 0 {
					t.Fatalf("%s: listing syncs nothing — differential is vacuous", name)
				}
				for _, async := range []bool{false, true} {
					label := fmt.Sprintf("optimize=%v/async=%v", optimize, async)
					sess := c.createSession(api.CreateSession{Optimize: optimize, Async: async})

					if async {
						res := c.submit(sess.ID, src, http.StatusAccepted)
						if !res.Async || res.Synced != nil {
							t.Fatalf("%s: async submit returned %+v", label, res)
						}
					} else {
						res := c.submit(sess.ID, src, http.StatusOK)
						if len(res.Synced) != len(wantSynced) {
							t.Fatalf("%s: %d synced registers, want %d", label, len(res.Synced), len(wantSynced))
						}
						for i, sr := range res.Synced {
							if sr != wantSynced[i] {
								t.Errorf("%s: synced[%d] diverged from in-process:\n--- direct\n%s = %s\n--- http\n%s = %s",
									label, i, wantSynced[i].Reg, wantSynced[i].Text, sr.Reg, sr.Text)
							}
						}
					}

					// The array endpoint (which fences async sessions)
					// must match the direct run's full-view text for
					// every register that still has a buffer.
					names := make([]string, 0, len(wantArrays))
					for rn := range wantArrays {
						names = append(names, rn)
					}
					sort.Strings(names)
					for _, rn := range names {
						arr := c.array(sess.ID, rn)
						if arr.Text != wantArrays[rn] {
							t.Errorf("%s: array %s diverged from in-process:\n--- direct\n%s\n--- http\n%s",
								label, rn, wantArrays[rn], arr.Text)
						}
						if len(arr.Values) != arr.Len {
							t.Errorf("%s: array %s carries %d values, len says %d",
								label, rn, len(arr.Values), arr.Len)
						}
					}
					c.expect("DELETE", "/v1/sessions/"+sess.ID, nil, http.StatusNoContent, nil)
				}
			}
		})
	}
}

// TestSessionLifecycle drives one session through the whole protocol
// surface: create, list, batch, array, stats, delete, and the
// unauthenticated health endpoint.
func TestSessionLifecycle(t *testing.T) {
	hs, srv := newTestServer(t, nil)
	c := &client{t: t, base: hs.URL, token: "secret-a"}

	var health map[string]string
	(&client{t: t, base: hs.URL}).expect("GET", "/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	sess := c.createSession(api.CreateSession{})
	if sess.Tenant != "tenant-a" || sess.Batches != 0 {
		t.Fatalf("created session %+v", sess)
	}

	var list api.SessionList
	c.expect("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != sess.ID {
		t.Fatalf("list: %+v", list)
	}

	src := listings(t)["quickstart"]
	res := c.submit(sess.ID, src, http.StatusOK)
	if res.Batch != 1 || res.Session != sess.ID || len(res.Synced) != 1 {
		t.Fatalf("batch result %+v", res)
	}

	arr := c.array(sess.ID, "a0")
	if arr.Len != 10 || arr.DType != "float64" {
		t.Fatalf("array %+v", arr)
	}
	for i, v := range arr.Values {
		if v != 3 {
			t.Fatalf("a0[%d] = %v, want 3 (three adds over zeros)", i, v)
		}
	}

	var st api.SessionStats
	c.expect("GET", "/v1/sessions/"+sess.ID+"/stats", nil, http.StatusOK, &st)
	if st.Session.Batches != 1 || st.Session.SubmittedBytes != int64(len(src)) {
		t.Fatalf("session stats %+v", st.Session)
	}
	if st.VM.Instructions == 0 || st.VM.Elements == 0 {
		t.Fatalf("vm stats empty: %+v", st.VM)
	}

	var ss api.ServerStats
	c.expect("GET", "/v1/stats", nil, http.StatusOK, &ss)
	if len(ss.Sessions) != 1 || ss.Sessions[0] != "tenant-a/"+sess.ID {
		t.Fatalf("server sessions %v", ss.Sessions)
	}
	if ss.PlanCacheLen == 0 {
		t.Fatal("plan cache empty after a compiled batch")
	}
	if ss.LiveBytes == 0 {
		t.Fatal("live_bytes zero with a session holding arrays")
	}
	if ss.MemorySheds != 0 {
		t.Fatalf("memory_sheds = %d on an unpressured engine, want 0", ss.MemorySheds)
	}
	if ss.InFlightBatches != 0 {
		t.Fatalf("in_flight_batches = %d between requests, want 0", ss.InFlightBatches)
	}

	c.expect("DELETE", "/v1/sessions/"+sess.ID, nil, http.StatusNoContent, nil)
	c.expect("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 0 {
		t.Fatalf("list after delete: %+v", list)
	}

	// Every request above carried the same token: the auth cache resolved
	// it once and served the rest from memory.
	hits, misses := srv.TokenCacheLookups()
	if misses != 1 || hits == 0 {
		t.Fatalf("token cache: %d hits, %d misses; want many hits over exactly 1 miss", hits, misses)
	}
}

// TestSharedPlanCacheAcrossSessions pins the paper's headline win in
// service form: two sessions (different tenants) submitting the same
// batch structure share one compiled plan through the runtime's
// fingerprint-keyed cache — the second submit is a plan hit, not a
// compile — with the optimizer off and on.
func TestSharedPlanCacheAcrossSessions(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	b := &client{t: t, base: hs.URL, token: "secret-b"}
	src := listings(t)["quickstart"]

	for _, optimize := range []bool{false, true} {
		sa := a.createSession(api.CreateSession{Optimize: optimize})
		sb := b.createSession(api.CreateSession{Optimize: optimize})
		a.submit(sa.ID, src, http.StatusOK)

		before := serverStats(a)
		b.submit(sb.ID, src, http.StatusOK)
		after := serverStats(a)

		if after.VM.PlanHits != before.VM.PlanHits+1 {
			t.Fatalf("optimize=%v: second tenant's identical batch: plan hits %d -> %d, want +1 (shared cache)",
				optimize, before.VM.PlanHits, after.VM.PlanHits)
		}
		if after.PlanCacheLen != before.PlanCacheLen {
			t.Fatalf("optimize=%v: plan cache grew %d -> %d on an identical batch",
				optimize, before.PlanCacheLen, after.PlanCacheLen)
		}
	}
}

func serverStats(c *client) api.ServerStats {
	c.t.Helper()
	var st api.ServerStats
	c.expect("GET", "/v1/stats", nil, http.StatusOK, &st)
	return st
}

// TestPlanCacheInvisibleAcrossSessions pins that a plan one session
// compiled carries none of that session's register state into another:
// session A declares an input its batch never reads, session B (which
// never bound that register) submits the same structure without it, and
// B's responses must be byte-identical to the same two batches on a
// fresh daemon.
func TestPlanCacheInvisibleAcrossSessions(t *testing.T) {
	const (
		defineA = ".reg a0 float64 4\n.reg a1 float64 4\nBH_IDENTITY a0 1\nBH_IDENTITY a1 2\nBH_SYNC a0\n"
		useA    = ".reg a0 float64 4\n.reg a1 float64 4\n.in a0\n.in a1\nBH_ADD a0 a0 3\nBH_SYNC a0\n"
		defineB = ".reg a0 float64 4\nBH_IDENTITY a0 1\nBH_SYNC a0\n"
		useB    = ".reg a0 float64 4\n.reg a1 float64 4\n.in a0\nBH_ADD a0 a0 3\nBH_SYNC a0\n"
	)
	type response struct {
		status int
		body   string
	}
	// runB submits B's two batches, after A's when withA is set. A's
	// session is created either way, so B's session id matches.
	runB := func(withA bool) [2]response {
		hs, _ := newTestServer(t, nil)
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		b := &client{t: t, base: hs.URL, token: "secret-b"}
		sa := a.createSession(api.CreateSession{})
		if withA {
			a.submit(sa.ID, defineA, http.StatusOK)
			a.submit(sa.ID, useA, http.StatusOK)
		}
		sb := b.createSession(api.CreateSession{})
		var out [2]response
		for i, src := range []string{defineB, useB} {
			status, body := b.do("POST", "/v1/sessions/"+sb.ID+"/batches", []byte(src))
			out[i] = response{status, string(body)}
		}
		return out
	}
	fresh, shared := runB(false), runB(true)
	if fresh[1].status != http.StatusOK {
		t.Fatalf("fresh daemon: B's batch got %d: %s", fresh[1].status, fresh[1].body)
	}
	if shared != fresh {
		t.Fatalf("B after A diverged from a fresh daemon:\n--- after A\n%+v\n--- fresh\n%+v", shared, fresh)
	}
}

// TestParametricPlanHitOverHTTP pins lookup-before-rewrite in bhd: a
// batch the optimizer leaves untouched (the affine map of BH_RANGE fires
// no rule) is cached parametrically, so the same structure under another
// constant is a plan hit that adds no cache entry — and still computes
// with its own constant.
func TestParametricPlanHitOverHTTP(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	c := &client{t: t, base: hs.URL, token: "secret-a"}
	sess := c.createSession(api.CreateSession{Optimize: true})
	const n, scale = 64, 3
	affine := func(k int) string {
		return fmt.Sprintf(".reg a0 float64 1\n.reg a1 float64 %d\nBH_RANGE a1\nBH_MULTIPLY a1 a1 %d\n"+
			"BH_ADD a1 a1 %d\nBH_ADD_REDUCE a0 [0:1:1] a1 axis=0\nBH_FREE a1\nBH_SYNC a0\n", n, scale, k)
	}
	c.submit(sess.ID, affine(2), http.StatusOK)

	before := serverStats(c)
	res := c.submit(sess.ID, affine(57), http.StatusOK)
	after := serverStats(c)
	if after.VM.PlanHits != before.VM.PlanHits+1 || after.VM.PlanMisses != before.VM.PlanMisses {
		t.Fatalf("affine map under a new constant: hits %d -> %d, misses %d -> %d; want one hit, no miss",
			before.VM.PlanHits, after.VM.PlanHits, before.VM.PlanMisses, after.VM.PlanMisses)
	}
	if after.PlanCacheLen != before.PlanCacheLen {
		t.Fatalf("plan cache grew %d -> %d on a parametric hit", before.PlanCacheLen, after.PlanCacheLen)
	}
	// sum over i < n of scale*i + 57
	want := scalarText(t, float64(scale*n*(n-1)/2+57*n))
	if len(res.Synced) != 1 || res.Synced[0].Text != want {
		t.Fatalf("synced %+v, want a0 = %s", res.Synced, want)
	}
}

// TestBakedPlanHitOverHTTP pins the other half of lookup-before-rewrite:
// an add chain fires add-merge, so its plan is cached for its exact
// constants — the same batch again is a hit, the same structure under
// another constant compiles its own entry and computes its own value.
func TestBakedPlanHitOverHTTP(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	c := &client{t: t, base: hs.URL, token: "secret-a"}
	sess := c.createSession(api.CreateSession{Optimize: true})
	const n = 64
	chain := func(k int) string {
		return fmt.Sprintf(".reg a0 float64 1\n.reg a1 float64 %d\nBH_IDENTITY a1 %d\nBH_ADD a1 a1 2\n"+
			"BH_ADD a1 a1 3\nBH_ADD_REDUCE a0 [0:1:1] a1 axis=0\nBH_FREE a1\nBH_SYNC a0\n", n, k)
	}
	c.submit(sess.ID, chain(5), http.StatusOK)

	before := serverStats(c)
	res := c.submit(sess.ID, chain(5), http.StatusOK)
	after := serverStats(c)
	if after.VM.PlanHits != before.VM.PlanHits+1 || after.PlanCacheLen != before.PlanCacheLen {
		t.Fatalf("identical add chain: hits %d -> %d, cache %d -> %d; want one hit, no new entry",
			before.VM.PlanHits, after.VM.PlanHits, before.PlanCacheLen, after.PlanCacheLen)
	}
	if want := scalarText(t, n*(5+5)); len(res.Synced) != 1 || res.Synced[0].Text != want {
		t.Fatalf("synced %+v, want a0 = %s", res.Synced, want)
	}

	res = c.submit(sess.ID, chain(7), http.StatusOK)
	again := serverStats(c)
	if again.VM.PlanMisses != after.VM.PlanMisses+1 || again.PlanCacheLen != after.PlanCacheLen+1 {
		t.Fatalf("add chain under a new constant: misses %d -> %d, cache %d -> %d; want a baked sibling entry",
			after.VM.PlanMisses, again.VM.PlanMisses, after.PlanCacheLen, again.PlanCacheLen)
	}
	if want := scalarText(t, n*(7+5)); len(res.Synced) != 1 || res.Synced[0].Text != want {
		t.Fatalf("synced %+v, want a0 = %s", res.Synced, want)
	}
}

// scalarText formats v the way a synced one-element register prints.
func scalarText(t *testing.T, v float64) string {
	t.Helper()
	tn, err := tensor.FromFloat64s([]float64{v}, tensor.MustShape(1))
	if err != nil {
		t.Fatal(err)
	}
	return tn.Format(syncFormat)
}

// TestIdleJanitor drives the reaper with an injected clock: an idle
// session is reaped after the timeout, an active one survives, and a
// reaped session's id turns into a 404.
func TestIdleJanitor(t *testing.T) {
	clock := &fakeClock{}
	hs, srv := newTestServer(t, func(cfg *server.Config) {
		cfg.Now = clock.now
		cfg.IdleTimeout = 100 * time.Millisecond
	})
	c := &client{t: t, base: hs.URL, token: "secret-a"}

	idle := c.createSession(api.CreateSession{})
	busy := c.createSession(api.CreateSession{})
	src := listings(t)["quickstart"]

	clock.advance(60)
	c.submit(busy.ID, src, http.StatusOK) // refreshes busy's idle clock
	clock.advance(60)                     // idle is now 120 ticks stale, busy 60

	reaped := srv.ReapIdle()
	if len(reaped) != 1 || reaped[0] != idle.ID {
		t.Fatalf("reaped %v, want exactly [%s]", reaped, idle.ID)
	}
	c.expectError("GET", "/v1/sessions/"+idle.ID+"/arrays/a0", nil, http.StatusNotFound, api.CodeNotFound)
	c.array(busy.ID, "a0") // busy must still serve
}

// fakeClock is a manually advanced test clock; one tick is a
// millisecond against the test's 100ms idle timeout.
type fakeClock struct {
	mu    sync.Mutex
	ticks int
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Unix(0, 0).Add(time.Duration(f.ticks) * time.Millisecond)
}

func (f *fakeClock) advance(n int) {
	f.mu.Lock()
	f.ticks += n
	f.mu.Unlock()
}
