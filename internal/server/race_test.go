package server_test

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"bohrium/internal/server"
	"bohrium/internal/server/api"
	"bohrium/internal/server/middleware"
)

// TestConcurrentTenants is the multi-tenancy contract under the race
// detector: K tenants hammer one shared runtime at once — sync and
// async sessions, interleaved submits and reads — and
// every tenant must see exactly its own isolated state: its own
// register values, its own session list, its own deterministic quota
// rejections, and sticky pipeline errors confined to the session that
// earned them. Foreign session ids stay invisible throughout.
func TestConcurrentTenants(t *testing.T) {
	const tenants = 4
	tokens := middleware.StaticTokens{}
	for i := 0; i < tenants; i++ {
		tokens[fmt.Sprintf("secret-%d", i)] = fmt.Sprintf("tenant-%d", i)
	}
	hs, _ := newTestServer(t, func(cfg *server.Config) {
		cfg.Auth = tokens
		// MaxSessions is per-tenant, so each worker's 429 arrives at the
		// same step of its script no matter how the goroutines interleave.
		cfg.Quotas = server.Quotas{MaxSessions: 3}
	})
	src := listings(t)["quickstart"]

	// Phase 1: every tenant opens its two worker sessions concurrently.
	type tenantState struct {
		c         *client
		syncSess  api.Session
		asyncSess api.Session
	}
	states := make([]*tenantState, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{t: t, base: hs.URL, token: fmt.Sprintf("secret-%d", i)}
			states[i] = &tenantState{
				c:         c,
				syncSess:  c.createSession(api.CreateSession{}),
				asyncSess: c.createSession(api.CreateSession{Async: true}),
			}
		}(i)
	}
	wg.Wait()

	// Phase 2: concurrent mixed workload, each tenant also probing its
	// neighbor's session ids.
	errCh := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := states[i]
			neighbor := states[(i+1)%tenants]
			c := st.c

			// Deterministic quota: the third create beyond the two live
			// sessions is admitted, the fourth rejected — every run, every
			// interleaving, because the cap is per tenant.
			third := c.createSession(api.CreateSession{})
			c.expectError("POST", "/v1/sessions", nil, http.StatusTooManyRequests, api.CodeQuota)
			c.expect("DELETE", "/v1/sessions/"+third.ID, nil, http.StatusNoContent, nil)

			for round := 0; round < 5; round++ {
				c.submit(st.syncSess.ID, src, http.StatusOK)
				c.submit(st.asyncSess.ID, src, http.StatusAccepted)

				for _, id := range []string{st.syncSess.ID, st.asyncSess.ID} {
					arr := c.array(id, "a0")
					for j, v := range arr.Values {
						if v != 3 {
							errCh <- fmt.Errorf("tenant %d session %s round %d: a0[%d] = %v, want 3", i, id, round, j, v)
							return
						}
					}
				}

				// Isolation: the neighbor's sessions do not exist for us.
				c.expectError("GET", "/v1/sessions/"+neighbor.syncSess.ID+"/arrays/a0", nil, http.StatusNotFound, api.CodeNotFound)
				c.expectError("POST", "/v1/sessions/"+neighbor.asyncSess.ID+"/batches", []byte(src), http.StatusNotFound, api.CodeNotFound)
			}

			// Our list holds exactly our two sessions, oldest first.
			var list api.SessionList
			c.expect("GET", "/v1/sessions", nil, http.StatusOK, &list)
			if len(list.Sessions) != 2 ||
				list.Sessions[0].ID != st.syncSess.ID || list.Sessions[1].ID != st.asyncSess.ID {
				errCh <- fmt.Errorf("tenant %d list: %+v", i, list.Sessions)
				return
			}
			for _, s := range list.Sessions {
				if s.Tenant != fmt.Sprintf("tenant-%d", i) {
					errCh <- fmt.Errorf("tenant %d sees session of %q", i, s.Tenant)
					return
				}
			}
			errCh <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}

	// Phase 3: one tenant poisons a fresh async session's pipeline (the
	// session must be fresh: register identity is positional, so on a
	// session that already ran batches the unbound ".in" register would
	// alias existing storage instead of failing). The sticky error is
	// confined to that session and invisible to every other session and
	// tenant.
	poisonOwner := states[0]
	poisoned := poisonOwner.c.createSession(api.CreateSession{Async: true})
	unbound := ".reg a9 float64 8\n.in a9\nBH_ADD a9 [0:8:1] a9 [0:8:1] 1\n"
	poisonOwner.c.submit(poisoned.ID, unbound, http.StatusAccepted)
	poisonOwner.c.expectError("GET", "/v1/sessions/"+poisoned.ID+"/arrays/a9", nil,
		http.StatusConflict, api.CodePipeline)
	poisonOwner.c.expectError("POST", "/v1/sessions/"+poisoned.ID+"/batches", []byte(src),
		http.StatusConflict, api.CodePipeline)
	poisonOwner.c.expect("DELETE", "/v1/sessions/"+poisoned.ID, nil, http.StatusNoContent, nil)
	// Same tenant's other sessions and every other tenant keep working.
	poisonOwner.c.submit(poisonOwner.syncSess.ID, src, http.StatusOK)
	poisonOwner.c.array(poisonOwner.asyncSess.ID, "a0")
	for _, st := range states[1:] {
		st.c.array(st.asyncSess.ID, "a0")
	}

	// Teardown: every tenant deletes its sessions; the server ends empty.
	for _, st := range states {
		st.c.expect("DELETE", "/v1/sessions/"+st.syncSess.ID, nil, http.StatusNoContent, nil)
		st.c.expect("DELETE", "/v1/sessions/"+st.asyncSess.ID, nil, http.StatusNoContent, nil)
		var list api.SessionList
		st.c.expect("GET", "/v1/sessions", nil, http.StatusOK, &list)
		if len(list.Sessions) != 0 {
			t.Errorf("tenant %s still lists %d sessions after teardown", st.syncSess.Tenant, len(list.Sessions))
		}
	}
}
