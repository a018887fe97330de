package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bohrium"
	"bohrium/internal/faultinject"
	"bohrium/internal/server"
	"bohrium/internal/server/api"
)

// idempotentSrc sets its register from constants before syncing, so
// re-executing it any number of times (retries after sheds, polls after
// stalls) always leaves the same four 42s — the chaos tests' fixed point.
const idempotentSrc = ".reg a0 float64 4\n" +
	"BH_IDENTITY a0 [0:4:1] 2\n" +
	"BH_MULTIPLY a0 [0:4:1] a0 [0:4:1] 21\n" +
	"BH_SYNC a0 [0:4:1]\n"

// bigSrc declares a register far over the chaos watermark (64Ki float64
// = 512 KiB) so its first materialization trips memory pressure.
const bigSrc = ".reg a0 float64 65536\n" +
	"BH_IDENTITY a0 [0:65536:1] 1\n" +
	"BH_SYNC a0 [0:65536:1]\n"

// rawGet performs one GET with full response access, for asserting the
// Retry-After header alongside the envelope.
func rawGet(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wantTriple asserts the pinned (status, code, retryable) contract of
// one fault's structured error.
func wantTriple(t *testing.T, apiErr *api.Error, status int, code string, retryable bool) {
	t.Helper()
	if apiErr.Status != status || apiErr.Code != code || apiErr.Retryable != retryable {
		t.Fatalf("error triple = (%d, %q, retryable=%v), want (%d, %q, retryable=%v); message: %s",
			apiErr.Status, apiErr.Code, apiErr.Retryable, status, code, retryable, apiErr.Message)
	}
	if retryable && apiErr.RetryAfter <= 0 {
		t.Fatalf("retryable error carries no retry_after hint: %+v", apiErr)
	}
}

// assertUnaffected proves tenant isolation while a fault targets
// tenant-a: tenant-b's quickstart run over HTTP stays byte-identical to
// direct in-process execution.
func assertUnaffected(t *testing.T, base string) {
	t.Helper()
	b := &client{t: t, base: base, token: "secret-b"}
	src := listings(t)["quickstart"]
	wantSynced, wantArrays := directRun(t, src, false)
	sess := b.createSession(api.CreateSession{})
	res := b.submit(sess.ID, src, http.StatusOK)
	if len(res.Synced) != len(wantSynced) {
		t.Fatalf("unaffected tenant: %d synced registers, want %d", len(res.Synced), len(wantSynced))
	}
	for i, sr := range res.Synced {
		if sr != wantSynced[i] {
			t.Fatalf("unaffected tenant diverged from in-process:\n--- direct\n%s = %s\n--- http\n%s = %s",
				wantSynced[i].Reg, wantSynced[i].Text, sr.Reg, sr.Text)
		}
	}
	for name, want := range wantArrays {
		if got := b.array(sess.ID, name).Text; got != want {
			t.Fatalf("unaffected tenant array %s diverged:\n--- direct\n%s\n--- http\n%s", name, want, got)
		}
	}
	b.expect("DELETE", "/v1/sessions/"+sess.ID, nil, http.StatusNoContent, nil)
}

// pollArray reads an array until it returns 200 (the pipeline caught
// up) or the deadline passes, returning the decoded array.
func pollArray(t *testing.T, c *client, id, reg string) api.Array {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, data := c.do("GET", "/v1/sessions/"+id+"/arrays/"+reg, nil)
		if status == http.StatusOK {
			var arr api.Array
			if err := json.Unmarshal(data, &arr); err != nil {
				t.Fatalf("decoding array: %v; body:\n%s", err, data)
			}
			return arr
		}
		if status != http.StatusServiceUnavailable {
			t.Fatalf("polling array: status %d, want 200 or 503; body:\n%s", status, data)
		}
		if time.Now().After(deadline) {
			t.Fatalf("array still unavailable after 10s; last body:\n%s", data)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func wantFortyTwos(t *testing.T, arr api.Array) {
	t.Helper()
	if len(arr.Values) != 4 {
		t.Fatalf("array has %d values, want 4", len(arr.Values))
	}
	for i, v := range arr.Values {
		if v != 42 {
			t.Fatalf("a0[%d] = %v, want 42", i, v)
		}
	}
}

// TestChaosFaultMatrix arms each named failure point in turn against
// tenant-a and pins the full failure contract: the fault surfaces as
// exactly one structured error with its pinned (status, code,
// retryable) triple, pipeline errors stay sticky, tenant-b's
// differential run is unaffected, and tenant-a recovers once the fault
// is disarmed. Goroutine and session leak checks run implicitly via
// newTestServer.
func TestChaosFaultMatrix(t *testing.T) {
	t.Run("alloc-fail-sync", func(t *testing.T) {
		hs, _ := newTestServer(t, nil)
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{})

		disarm := faultinject.Arm(faultinject.AllocFail, faultinject.Fault{Label: "tenant-a"})
		defer disarm()
		apiErr := a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(idempotentSrc),
			http.StatusUnprocessableEntity, api.CodeExec)
		wantTriple(t, apiErr, http.StatusUnprocessableEntity, api.CodeExec, false)
		if !strings.Contains(apiErr.Message, "injected fault") {
			t.Fatalf("error does not name the injected fault: %s", apiErr.Message)
		}
		// A failed synchronous batch was committed before it ran: it is
		// counted, bytes included, like one that succeeded.
		var st api.SessionStats
		a.expect("GET", "/v1/sessions/"+sess.ID+"/stats", nil, http.StatusOK, &st)
		if st.Session.Batches != 1 || st.Session.SubmittedBytes != int64(len(idempotentSrc)) {
			t.Fatalf("failed sync batch booked %d batches and %d bytes, want 1 and %d",
				st.Session.Batches, st.Session.SubmittedBytes, len(idempotentSrc))
		}
		assertUnaffected(t, hs.URL)

		disarm()
		a.submit(sess.ID, idempotentSrc, http.StatusOK) // session recovered in place
		wantFortyTwos(t, a.array(sess.ID, "a0"))
	})

	t.Run("alloc-fail-async-sticky", func(t *testing.T) {
		hs, _ := newTestServer(t, nil)
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{Async: true})

		disarm := faultinject.Arm(faultinject.AllocFail, faultinject.Fault{Label: "tenant-a", Times: 1})
		defer disarm()
		a.submit(sess.ID, idempotentSrc, http.StatusAccepted) // admission succeeds; execution fails behind it
		apiErr := a.expectError("GET", "/v1/sessions/"+sess.ID+"/arrays/a0", nil,
			http.StatusConflict, api.CodePipeline)
		wantTriple(t, apiErr, http.StatusConflict, api.CodePipeline, false)
		// Sticky: later submits report the poisoned pipeline, not new work.
		apiErr = a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(idempotentSrc),
			http.StatusConflict, api.CodePipeline)
		wantTriple(t, apiErr, http.StatusConflict, api.CodePipeline, false)
		assertUnaffected(t, hs.URL)

		// Recovery is a fresh session; the poisoned one dies with its error.
		a.expect("DELETE", "/v1/sessions/"+sess.ID, nil, http.StatusNoContent, nil)
		fresh := a.createSession(api.CreateSession{Async: true})
		a.submit(fresh.ID, idempotentSrc, http.StatusAccepted)
		wantFortyTwos(t, a.array(fresh.ID, "a0"))
	})

	t.Run("worker-panic-sync", func(t *testing.T) {
		hs, _ := newTestServer(t, nil)
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{})

		firedBefore := faultinject.Fired(faultinject.WorkerPanic)
		disarm := faultinject.Arm(faultinject.WorkerPanic, faultinject.Fault{Label: "tenant-a", Times: 1})
		defer disarm()
		assertUnaffected(t, hs.URL) // label-gated: tenant-b never trips it
		apiErr := a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(idempotentSrc),
			http.StatusInternalServerError, api.CodeInternal)
		wantTriple(t, apiErr, http.StatusInternalServerError, api.CodeInternal, false)
		if n := faultinject.Fired(faultinject.WorkerPanic) - firedBefore; n != 1 {
			t.Fatalf("worker-panic fired %d times, want exactly 1", n)
		}

		// The recovery middleware confined the panic to one response: the
		// daemon, the session, and its lock all survived.
		a.submit(sess.ID, idempotentSrc, http.StatusOK)
		wantFortyTwos(t, a.array(sess.ID, "a0"))
	})

	t.Run("worker-panic-async-sticky", func(t *testing.T) {
		hs, _ := newTestServer(t, nil)
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{Async: true})

		disarm := faultinject.Arm(faultinject.WorkerPanic, faultinject.Fault{Label: "tenant-a", Times: 1})
		defer disarm()
		a.submit(sess.ID, idempotentSrc, http.StatusAccepted)
		apiErr := a.expectError("GET", "/v1/sessions/"+sess.ID+"/arrays/a0", nil,
			http.StatusConflict, api.CodePipeline)
		wantTriple(t, apiErr, http.StatusConflict, api.CodePipeline, false)
		if !strings.Contains(apiErr.Message, "panic during pipelined execution") {
			t.Fatalf("sticky error does not name the recovered panic: %s", apiErr.Message)
		}
		assertUnaffected(t, hs.URL)
	})

	t.Run("slow-exec-wait-deadline", func(t *testing.T) {
		hs, _ := newTestServer(t, func(cfg *server.Config) {
			cfg.WaitTimeout = 100 * time.Millisecond
		})
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{Async: true})

		disarm := faultinject.Arm(faultinject.SlowExec, faultinject.Fault{
			Label: "tenant-a", Delay: 500 * time.Millisecond, Times: 1,
		})
		defer disarm()
		a.submit(sess.ID, idempotentSrc, http.StatusAccepted)
		resp := rawGet(t, hs.URL+"/v1/sessions/"+sess.ID+"/arrays/a0", "secret-a")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		apiErr, err := api.DecodeError(body)
		if err != nil {
			t.Fatalf("no envelope in %s", body)
		}
		wantTriple(t, apiErr, http.StatusServiceUnavailable, api.CodeOverloaded, true)
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatal("503 overloaded carries no Retry-After header")
		}

		// The abandoned wait canceled nothing: the slow batch completes and
		// a later read returns its results intact.
		wantFortyTwos(t, pollArray(t, a, sess.ID, "a0"))
		assertUnaffected(t, hs.URL)
	})

	t.Run("executor-stall-submit-deadline", func(t *testing.T) {
		hs, _ := newTestServer(t, func(cfg *server.Config) {
			cfg.QueueDepth = 1
			cfg.SubmitTimeout = 50 * time.Millisecond
		})
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{Async: true})

		disarm := faultinject.Arm(faultinject.ExecStall, faultinject.Fault{
			Label: "tenant-a", Delay: 400 * time.Millisecond, Times: 1,
		})
		defer disarm()
		a.submit(sess.ID, idempotentSrc, http.StatusAccepted) // dequeued, then stalls
		time.Sleep(30 * time.Millisecond)                     // let the executor enter the stall
		a.submit(sess.ID, idempotentSrc, http.StatusAccepted) // fills the depth-1 queue
		start := time.Now()
		apiErr := a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(idempotentSrc),
			http.StatusServiceUnavailable, api.CodeOverloaded)
		wantTriple(t, apiErr, http.StatusServiceUnavailable, api.CodeOverloaded, true)
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("shed took %v, want bounded latency near the 50ms deadline", waited)
		}

		// The shed batch was never booked; the two admitted ones execute.
		wantFortyTwos(t, pollArray(t, a, sess.ID, "a0"))
		var st api.SessionStats
		a.expect("GET", "/v1/sessions/"+sess.ID+"/stats", nil, http.StatusOK, &st)
		if st.Session.Batches != 2 || st.Session.SubmittedBytes != int64(2*len(idempotentSrc)) {
			t.Fatalf("session booked %d batches and %d bytes, want 2 and %d (the shed one must not count)",
				st.Session.Batches, st.Session.SubmittedBytes, 2*len(idempotentSrc))
		}
		assertUnaffected(t, hs.URL)
	})

	t.Run("janitor-clock-skew", func(t *testing.T) {
		hs, srv := newTestServer(t, nil)
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{})

		disarm := faultinject.Arm(faultinject.JanitorSkew, faultinject.Fault{
			Label: "janitor", Skew: time.Hour,
		})
		defer disarm()
		reaped := srv.ReapIdle() // the skewed clock makes every session look idle
		if len(reaped) != 1 || reaped[0] != sess.ID {
			t.Fatalf("skewed janitor reaped %v, want exactly [%s]", reaped, sess.ID)
		}
		apiErr := a.expectError("GET", "/v1/sessions/"+sess.ID+"/arrays/a0", nil,
			http.StatusNotFound, api.CodeNotFound)
		wantTriple(t, apiErr, http.StatusNotFound, api.CodeNotFound, false)

		disarm()
		fresh := a.createSession(api.CreateSession{})
		if reaped := srv.ReapIdle(); len(reaped) != 0 {
			t.Fatalf("healthy janitor reaped %v, want none", reaped)
		}
		a.submit(fresh.ID, idempotentSrc, http.StatusOK)
	})
}

// TestChaosOverloadBackpressure is the overload acceptance test: with
// the executor queue at depth 1 and a deliberately slow first plan, a
// flood of submissions must return bounded-latency responses — some
// 202, at least one shed 503 with Retry-After — and once the pressure
// clears the session's state and a fresh session's differential run
// are byte-identical to in-process execution.
func TestChaosOverloadBackpressure(t *testing.T) {
	hs, _ := newTestServer(t, func(cfg *server.Config) {
		cfg.QueueDepth = 1
		cfg.SubmitTimeout = 50 * time.Millisecond
	})
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	sess := a.createSession(api.CreateSession{Async: true})

	disarm := faultinject.Arm(faultinject.SlowExec, faultinject.Fault{
		Label: "tenant-a", Delay: 400 * time.Millisecond, Times: 1,
	})
	defer disarm()

	accepted, shed := 0, 0
	for i := 0; i < 8; i++ {
		start := time.Now()
		status, data := a.do("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(idempotentSrc))
		latency := time.Since(start)
		if latency > 5*time.Second {
			t.Fatalf("submit %d took %v, want bounded latency", i, latency)
		}
		switch status {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			shed++
			apiErr, err := api.DecodeError(data)
			if err != nil {
				t.Fatalf("shed response has no envelope: %s", data)
			}
			wantTriple(t, apiErr, http.StatusServiceUnavailable, api.CodeOverloaded, true)
		default:
			t.Fatalf("submit %d: status %d, want 202 or 503; body:\n%s", i, status, data)
		}
	}
	if accepted == 0 || shed == 0 {
		t.Fatalf("flood saw %d accepted / %d shed; want both behaviors under pressure", accepted, shed)
	}

	// Pressure clears: the queue drains and the surviving batches leave
	// the idempotent fixed point, byte-identically readable.
	wantFortyTwos(t, pollArray(t, a, sess.ID, "a0"))
	var st api.SessionStats
	a.expect("GET", "/v1/sessions/"+sess.ID+"/stats", nil, http.StatusOK, &st)
	if st.Session.Batches != accepted {
		t.Fatalf("session booked %d batches, want %d (only admitted submissions count)",
			st.Session.Batches, accepted)
	}

	// A fresh session after the storm runs the full differential sweep.
	assertUnaffected(t, hs.URL)
	src := listings(t)["quickstart"]
	wantSynced, _ := directRun(t, src, false)
	fresh := a.createSession(api.CreateSession{})
	res := a.submit(fresh.ID, src, http.StatusOK)
	for i, sr := range res.Synced {
		if sr != wantSynced[i] {
			t.Fatalf("post-overload run diverged: %s = %s, want %s = %s",
				sr.Reg, sr.Text, wantSynced[i].Reg, wantSynced[i].Text)
		}
	}
}

// TestChaosClientDisconnectMidWait pins the deadline contract's other
// half: a client that disconnects while its read fences an async
// pipeline abandons only the WAIT. The in-flight batch completes
// untouched and a later read returns its results.
func TestChaosClientDisconnectMidWait(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	sess := a.createSession(api.CreateSession{Async: true})

	disarm := faultinject.Arm(faultinject.SlowExec, faultinject.Fault{
		Label: "tenant-a", Delay: 400 * time.Millisecond, Times: 1,
	})
	defer disarm()
	a.submit(sess.ID, idempotentSrc, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		hs.URL+"/v1/sessions/"+sess.ID+"/arrays/a0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer secret-a")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("read returned before the slow batch finished; want client-side deadline")
	}

	// The disconnect canceled the wait, not the execution.
	wantFortyTwos(t, pollArray(t, a, sess.ID, "a0"))
}

// TestChaosMemoryPressure pins graceful degradation end to end: on a
// runtime with a tiny high watermark, a batch whose registers blow the
// budget is denied with the retryable memory_pressure envelope (after
// the engine shed its caches), while modest batches on the same daemon
// keep succeeding.
func TestChaosMemoryPressure(t *testing.T) {
	hs, _ := newTestServerRT(t, &bohrium.RuntimeConfig{MemoryHighWatermark: 4096}, nil)
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	sess := a.createSession(api.CreateSession{})

	apiErr := a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(bigSrc),
		http.StatusServiceUnavailable, api.CodeMemoryPressure)
	wantTriple(t, apiErr, http.StatusServiceUnavailable, api.CodeMemoryPressure, true)
	if !strings.Contains(apiErr.Message, "high watermark") {
		t.Fatalf("pressure error does not explain the watermark: %s", apiErr.Message)
	}

	// Small batches fit under the watermark and still execute — the
	// daemon degraded, it did not die.
	a.submit(sess.ID, idempotentSrc, http.StatusOK)
	wantFortyTwos(t, a.array(sess.ID, "a0"))
	assertUnaffected(t, hs.URL)
}

// TestChaosDrain pins shutdown behavior at the handler level: once the
// server begins draining, new work (POSTs) is refused with the
// retryable unavailable envelope and a Retry-After hint, while reads
// and deletes of existing state keep working; Drain returns promptly
// once nothing is in flight.
func TestChaosDrain(t *testing.T) {
	hs, srv := newTestServer(t, nil)
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	sess := a.createSession(api.CreateSession{})
	a.submit(sess.ID, idempotentSrc, http.StatusOK)

	srv.BeginDrain()
	apiErr := a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(idempotentSrc),
		http.StatusServiceUnavailable, api.CodeUnavailable)
	wantTriple(t, apiErr, http.StatusServiceUnavailable, api.CodeUnavailable, true)
	apiErr = a.expectError("POST", "/v1/sessions", nil,
		http.StatusServiceUnavailable, api.CodeUnavailable)
	wantTriple(t, apiErr, http.StatusServiceUnavailable, api.CodeUnavailable, true)

	// Results of admitted work stay readable and sessions can be closed.
	wantFortyTwos(t, a.array(sess.ID, "a0"))
	var list api.SessionList
	a.expect("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 {
		t.Fatalf("listing during drain: %+v", list)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with nothing in flight: %v (in flight: %d)", err, srv.InFlightBatches())
	}
	a.expect("DELETE", "/v1/sessions/"+sess.ID, nil, http.StatusNoContent, nil)
}
