package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"bohrium/internal/server"
	"bohrium/internal/server/api"
)

// TestErrorEnvelopes is the table of every client-visible failure path,
// pinning the HTTP status, the machine-readable code, and that the
// envelope's echoed status matches the transport status. These are the
// protocol contract of docs/api.md: clients switch on (status, code),
// so a drift here is a breaking change.
func TestErrorEnvelopes(t *testing.T) {
	hs, _ := newTestServer(t, func(cfg *server.Config) {
		cfg.MaxBodyBytes = 512
	})
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	b := &client{t: t, base: hs.URL, token: "secret-b"}

	// Prepared state: a live session for tenant-a, a deleted session, and
	// an async session whose pipeline has been poisoned by a batch that
	// reads an input register nothing ever bound.
	live := a.createSession(api.CreateSession{})
	deleted := a.createSession(api.CreateSession{})
	a.expect("DELETE", "/v1/sessions/"+deleted.ID, nil, http.StatusNoContent, nil)
	poisoned := a.createSession(api.CreateSession{Async: true})
	unbound := ".reg a9 float64 8\n.in a9\nBH_ADD a9 [0:8:1] a9 [0:8:1] 1\nBH_SYNC a9 [0:8:1]\n"
	a.submit(poisoned.ID, unbound, http.StatusAccepted)

	cases := []struct {
		name   string
		client *client
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"missing token", &client{t: t, base: hs.URL}, "GET", "/v1/sessions", "", http.StatusUnauthorized, api.CodeUnauthorized},
		{"unknown token", &client{t: t, base: hs.URL, token: "wrong"}, "GET", "/v1/sessions", "", http.StatusUnauthorized, api.CodeUnauthorized},
		{"unknown session", a, "GET", "/v1/sessions/s-999/stats", "", http.StatusNotFound, api.CodeNotFound},
		{"foreign session is invisible", b, "GET", "/v1/sessions/" + live.ID + "/stats", "", http.StatusNotFound, api.CodeNotFound},
		{"foreign session delete is invisible", b, "DELETE", "/v1/sessions/" + live.ID, "", http.StatusNotFound, api.CodeNotFound},
		{"double close", a, "DELETE", "/v1/sessions/" + deleted.ID, "", http.StatusNotFound, api.CodeNotFound},
		{"batch to deleted session", a, "POST", "/v1/sessions/" + deleted.ID + "/batches", "BH_SYNC a0 [0:1:1]\n", http.StatusNotFound, api.CodeNotFound},
		{"malformed create body", a, "POST", "/v1/sessions", "{not json", http.StatusBadRequest, api.CodeBadRequest},
		{"unknown backend", a, "POST", "/v1/sessions", `{"backend":"gpu-cluster"}`, http.StatusBadRequest, api.CodeBadRequest},
		// A field the server does not have is refused, not dropped: a
		// client asking for a memory budget must not run without one.
		{"unknown create field", a, "POST", "/v1/sessions", `{"optimize":true,"chunk_bytes":65536}`, http.StatusBadRequest, api.CodeBadRequest},
		{"trailing create data", a, "POST", "/v1/sessions", `{"optimize":true} {}`, http.StatusBadRequest, api.CodeBadRequest},
		{"malformed bytecode", a, "POST", "/v1/sessions/" + live.ID + "/batches", "BH_NOT_AN_OP a0\n", http.StatusBadRequest, api.CodeParse},
		{"invalid program", a, "POST", "/v1/sessions/" + live.ID + "/batches", ".reg a0 float64 4\nBH_ADD a0 [0:4:1] a1 [0:4:1] 1\n", http.StatusBadRequest, api.CodeInvalid},
		{"body too large", a, "POST", "/v1/sessions/" + live.ID + "/batches", strings.Repeat("# padding\n", 100), http.StatusRequestEntityTooLarge, api.CodeTooLarge},
		{"exec failure, sync", a, "POST", "/v1/sessions/" + live.ID + "/batches", unbound, http.StatusUnprocessableEntity, api.CodeExec},
		// The read fences the pipeline, so the poisoned batch has failed
		// by the time the submit after it looks.
		{"poisoned pipeline rejects reads", a, "GET", "/v1/sessions/" + poisoned.ID + "/arrays/a9", "", http.StatusConflict, api.CodePipeline},
		{"poisoned pipeline rejects submits", a, "POST", "/v1/sessions/" + poisoned.ID + "/batches", "# nop\n.reg a0 float64 1\nBH_IDENTITY a0 [0:1:1] 0\n", http.StatusConflict, api.CodePipeline},
		{"unknown array", a, "GET", "/v1/sessions/" + live.ID + "/arrays/a7", "", http.StatusNotFound, api.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.client.expectError(tc.method, tc.path, []byte(tc.body), tc.status, tc.code)
		})
	}

	// The exec failure above must not have wedged the session: the next
	// valid batch still executes.
	a.submit(live.ID, "# recovery\n.reg a0 float64 4\nBH_IDENTITY a0 [0:4:1] 5\nBH_SYNC a0 [0:4:1]\n", http.StatusOK)
}

// TestQuotaErrors pins the three per-tenant quota rejections: live
// sessions, cumulative submitted bytes, and queued async batches. Each
// rejection is deterministic — replaying the same request sequence
// yields the same 429 at the same step — and scoped to the tenant: the
// other tenant's identical requests still succeed.
func TestQuotaErrors(t *testing.T) {
	t.Run("max sessions", func(t *testing.T) {
		hs, _ := newTestServer(t, func(cfg *server.Config) {
			cfg.Quotas = server.Quotas{MaxSessions: 2}
		})
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		b := &client{t: t, base: hs.URL, token: "secret-b"}
		a.createSession(api.CreateSession{})
		kept := a.createSession(api.CreateSession{})
		apiErr := a.expectError("POST", "/v1/sessions", nil, http.StatusTooManyRequests, api.CodeQuota)
		if !strings.Contains(apiErr.Message, "max 2") {
			t.Fatalf("quota message %q does not name the limit", apiErr.Message)
		}
		b.createSession(api.CreateSession{}) // other tenant unaffected
		// Closing a session frees the slot.
		a.expect("DELETE", "/v1/sessions/"+kept.ID, nil, http.StatusNoContent, nil)
		a.createSession(api.CreateSession{})
	})

	t.Run("max submitted bytes", func(t *testing.T) {
		src := "# bytes\n.reg a0 float64 4\nBH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0 [0:4:1]\n"
		hs, _ := newTestServer(t, func(cfg *server.Config) {
			cfg.Quotas = server.Quotas{MaxSubmittedBytes: int64(2*len(src) + 1)}
		})
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		b := &client{t: t, base: hs.URL, token: "secret-b"}
		sess := a.createSession(api.CreateSession{})
		a.submit(sess.ID, src, http.StatusOK)
		a.submit(sess.ID, src, http.StatusOK)
		a.expectError("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(src), http.StatusTooManyRequests, api.CodeQuota)
		// The budget is cumulative: a fresh session doesn't reset it.
		fresh := a.createSession(api.CreateSession{})
		a.expectError("POST", "/v1/sessions/"+fresh.ID+"/batches", []byte(src), http.StatusTooManyRequests, api.CodeQuota)
		sb := b.createSession(api.CreateSession{})
		b.submit(sb.ID, src, http.StatusOK) // other tenant's budget untouched
	})

	t.Run("max queued batches", func(t *testing.T) {
		hs, _ := newTestServer(t, func(cfg *server.Config) {
			cfg.Quotas = server.Quotas{MaxQueuedBatches: 4}
		})
		a := &client{t: t, base: hs.URL, token: "secret-a"}
		sess := a.createSession(api.CreateSession{Async: true})
		// A large enough burst must eventually see a deterministic 429
		// once four batches sit unexecuted; with a fast executor the queue
		// may drain between submits, so assert the mechanism rather than
		// a fixed failing index: either the quota fires with the right
		// envelope, or every batch was absorbed and the queue stayed
		// under the cap throughout.
		src := listings(t)["montecarlo"]
		quotaHit := false
		for i := 0; i < 32 && !quotaHit; i++ {
			status, data := a.do("POST", "/v1/sessions/"+sess.ID+"/batches", []byte(src))
			switch status {
			case http.StatusAccepted:
			case http.StatusTooManyRequests:
				apiErr, err := api.DecodeError(data)
				if err != nil || apiErr.Code != api.CodeQuota {
					t.Fatalf("429 without quota envelope: %v %s", err, data)
				}
				quotaHit = true
			default:
				t.Fatalf("submit %d: unexpected status %d: %s", i, status, data)
			}
		}
		// Fence, then the queue is empty and submits are admitted again.
		a.array(sess.ID, "a3")
		a.submit(sess.ID, src, http.StatusAccepted)
	})
}

// TestBodyLimitOnCreate pins that the body cap guards session creation
// too, and that a capped create carries the structured 413 envelope.
func TestBodyLimitOnCreate(t *testing.T) {
	hs, _ := newTestServer(t, func(cfg *server.Config) {
		cfg.MaxBodyBytes = 64
	})
	a := &client{t: t, base: hs.URL, token: "secret-a"}
	big, _ := json.Marshal(map[string]string{"backend": strings.Repeat("x", 100)})
	a.expectError("POST", "/v1/sessions", big, http.StatusRequestEntityTooLarge, api.CodeTooLarge)
}

// TestEnvelopeShape pins the exact JSON document shape of an error —
// the {"error":{code,message,status}} envelope — so clients parsing
// raw bodies never break on a field rename.
func TestEnvelopeShape(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	req, _ := http.NewRequest("GET", hs.URL+"/v1/sessions", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	inner, ok := doc["error"]
	if !ok {
		t.Fatalf("no \"error\" key in %v", doc)
	}
	if inner["code"] != api.CodeUnauthorized || inner["status"] != float64(http.StatusUnauthorized) {
		t.Fatalf("envelope %v", inner)
	}
	if _, ok := inner["message"].(string); !ok {
		t.Fatalf("envelope message missing: %v", inner)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content-type %q", ct)
	}
}
