package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"bohrium"
	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/server/api"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Quotas bounds one tenant's use of the shared runtime. Zero fields are
// unlimited. Rejections are deterministic: a tenant driving requests
// sequentially sees exactly the same 429s on every run.
type Quotas struct {
	// MaxSessions caps a tenant's live sessions.
	MaxSessions int
	// MaxSubmittedBytes caps a tenant's cumulative batch bytes over the
	// daemon's lifetime — metering, not a sliding window: closing
	// sessions does not refund the budget.
	MaxSubmittedBytes int64
	// MaxQueuedBatches caps a tenant's async batches that are submitted
	// but not yet executed, summed over the tenant's sessions.
	MaxQueuedBatches int
}

// session is one tenant's execution state: a backend session on the
// shared engine (with its own pipeline in async mode) and the
// name→register map of its batches. sem serializes the HTTP handlers
// driving it — the backend keeps its single-goroutine contract even when
// a tenant's requests race each other. It is a one-slot channel rather
// than a sync.Mutex so deadline-bearing handlers can bound how long they
// wait for the session (lockFor): a slow batch on one connection must
// turn into the OTHER connection's structured 503, not a hung handler.
type session struct {
	id     string // immutable after construction
	tenant string // immutable after construction

	sem            chan struct{}       // 1-slot handler lock; lock/lockCtx/unlock
	be             *backend.Backend    // immutable after construction (calls through it hold sem)
	plans          *backend.Resolver   // immutable after construction (calls through it hold sem)
	regs           map[string]regEntry // guarded by sem
	batches        int                 // guarded by sem
	submittedBytes int64               // guarded by sem
	lastUsed       time.Time           // guarded by sem
	closed         bool                // guarded by sem
	release        func()              // immutable after construction: runtime session-registry hook
}

// lock acquires the session unconditionally (registry teardown paths,
// which must not shed).
func (s *session) lock() { s.sem <- struct{}{} }

// lockCtx acquires the session or gives up when ctx expires, reporting
// whether the lock was taken. The fast path never builds a timer.
func (s *session) lockCtx(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *session) unlock() { <-s.sem }

// regEntry remembers where a listing name landed: the register id and
// the declared geometry reads address it through.
type regEntry struct {
	id    bytecode.RegID
	dtype tensor.DType
	n     int
}

// snapshot builds the session's wire form. Caller holds the session
// lock (sem) or has the session otherwise quiesced.
func (s *session) snapshot() api.Session {
	return api.Session{
		ID:             s.id,
		Tenant:         s.tenant,
		Optimize:       s.plans.Signature().Options != rewrite.Options{},
		Async:          s.be.Async(),
		Batches:        s.batches,
		SubmittedBytes: s.submittedBytes,
		Pending:        s.be.Pending(),
	}
}

// closeLocked tears the session down. Caller holds the session lock.
func (s *session) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	s.be.Close() // drains; a sticky pipeline error dies with the session
	s.release()
}

// close tears the session down under its own lock, after any in-flight
// handler finishes. The registry entry must already be gone, so no new
// request can find it.
func (s *session) close() {
	s.lock()
	s.closeLocked()
	s.unlock()
}

// registry owns every live session and the per-tenant usage the quota
// middleware meters. The registry lock covers the maps and tenant
// counters only — never a session's sem — so slow batches on one session
// cannot stall another tenant's admission.
type registry struct {
	rt         *bohrium.Runtime // immutable after newRegistry
	quotas     Quotas           // immutable after newRegistry
	now        func() time.Time // immutable after newRegistry
	queueDepth int              // immutable after newRegistry: async sessions' queue depth (0: vm.DefaultAsyncDepth)

	mu       sync.Mutex
	sessions map[string]*session     // guarded by mu
	tenants  map[string]*tenantUsage // guarded by mu
	nextID   uint64                  // guarded by mu
}

// tenantUsage is one tenant's metered footprint.
type tenantUsage struct {
	live           int
	submittedBytes int64
}

func newRegistry(rt *bohrium.Runtime, q Quotas, now func() time.Time, queueDepth int) *registry {
	return &registry{
		rt:         rt,
		quotas:     q,
		now:        now,
		queueDepth: queueDepth,
		sessions:   map[string]*session{},
		tenants:    map[string]*tenantUsage{},
	}
}

// pendingBatches sums submitted-not-yet-executed batches across every
// live session — the drain sequencer polls it to know when in-flight
// async work has landed.
func (reg *registry) pendingBatches() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	total := 0
	for _, s := range reg.sessions {
		total += s.be.Pending()
	}
	return total
}

// usage returns (creating if needed) tenant's counters. Caller holds mu.
func (reg *registry) usage(tenant string) *tenantUsage {
	u := reg.tenants[tenant]
	if u == nil {
		u = &tenantUsage{}
		reg.tenants[tenant] = u
	}
	return u
}

// Admit implements middleware.Admitter: the per-request quota gate, run
// after auth and before any handler. It meters by route shape — session
// creation against MaxSessions, batch submission against the byte and
// queue quotas. The byte check here uses Content-Length as an early
// rejection; chargeBytes re-checks authoritatively once the body is
// actually read.
func (reg *registry) Admit(tenant string, r *http.Request) *api.Error {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	u := reg.usage(tenant)
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sessions":
		if reg.quotas.MaxSessions > 0 && u.live >= reg.quotas.MaxSessions {
			return api.Errorf(http.StatusTooManyRequests, api.CodeQuota,
				"tenant %q has %d live sessions (max %d)", tenant, u.live, reg.quotas.MaxSessions)
		}
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/batches"):
		if max := reg.quotas.MaxSubmittedBytes; max > 0 && r.ContentLength > 0 &&
			u.submittedBytes+r.ContentLength > max {
			return api.Errorf(http.StatusTooManyRequests, api.CodeQuota,
				"tenant %q submitted %d bytes; %d more would exceed the %d-byte quota",
				tenant, u.submittedBytes, r.ContentLength, max)
		}
		if max := reg.quotas.MaxQueuedBatches; max > 0 {
			queued := 0
			for _, s := range reg.sessions {
				if s.tenant == tenant {
					queued += s.be.Pending()
				}
			}
			if queued >= max {
				return api.Errorf(http.StatusTooManyRequests, api.CodeQuota,
					"tenant %q has %d queued batches (max %d)", tenant, queued, max)
			}
		}
	}
	return nil
}

// chargeBytes books n submitted bytes against tenant's budget — the
// authoritative check behind Admit's Content-Length preflight.
func (reg *registry) chargeBytes(tenant string, n int64) *api.Error {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	u := reg.usage(tenant)
	if max := reg.quotas.MaxSubmittedBytes; max > 0 && u.submittedBytes+n > max {
		return api.Errorf(http.StatusTooManyRequests, api.CodeQuota,
			"tenant %q submitted %d bytes; %d more would exceed the %d-byte quota",
			tenant, u.submittedBytes, n, max)
	}
	u.submittedBytes += n
	return nil
}

// refundBytes returns n booked bytes to tenant's budget. A shed
// submission executed nothing, so it must not consume quota either —
// the client is told to retry, and the retry must not pay twice.
func (reg *registry) refundBytes(tenant string, n int64) {
	reg.mu.Lock()
	reg.usage(tenant).submittedBytes -= n
	reg.mu.Unlock()
}

// create opens a session for tenant on the shared engine. The quota is
// re-checked under the registry lock: Admit runs outside it, and two
// racing creates must not both slip under MaxSessions.
func (reg *registry) create(tenant string, req api.CreateSession) (*session, *api.Error) {
	vcfg := vm.Config{Fusion: true, FaultLabel: tenant}
	be := backend.New(reg.rt.Engine(), backend.Config{VM: vcfg, Async: req.Async, AsyncDepth: reg.queueDepth})

	reg.mu.Lock()
	u := reg.usage(tenant)
	if reg.quotas.MaxSessions > 0 && u.live >= reg.quotas.MaxSessions {
		reg.mu.Unlock()
		be.Close()
		return nil, api.Errorf(http.StatusTooManyRequests, api.CodeQuota,
			"tenant %q has %d live sessions (max %d)", tenant, u.live, reg.quotas.MaxSessions)
	}
	reg.nextID++
	s := &session{
		id:       fmt.Sprintf("s-%d", reg.nextID),
		tenant:   tenant,
		sem:      make(chan struct{}, 1),
		be:       be,
		regs:     map[string]regEntry{},
		lastUsed: reg.now(),
	}
	// A session's plans are scoped to bhd and to its optimizer setting:
	// tenants share compiles, never with a differently optimized session
	// or another host of the engine.
	var opts rewrite.Options // the zero Options rewrite nothing
	if req.Optimize {
		opts = rewrite.DefaultOptions()
	}
	s.plans = backend.NewResolver(be, backend.Signature{Scope: "bhd", Options: opts, Fusion: vcfg.Fusion}, nil, nil)
	s.release = reg.rt.Register(tenant + "/" + s.id)
	reg.sessions[s.id] = s
	u.live++
	reg.mu.Unlock()
	return s, nil
}

// lookup finds tenant's session id. Sessions are tenant-scoped: another
// tenant's id — even a correctly guessed one — is indistinguishable
// from a nonexistent session.
func (reg *registry) lookup(tenant, id string) (*session, *api.Error) {
	reg.mu.Lock()
	s := reg.sessions[id]
	reg.mu.Unlock()
	if s == nil || s.tenant != tenant {
		return nil, api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"tenant %q has no session %q", tenant, id)
	}
	return s, nil
}

// list snapshots tenant's sessions, oldest first.
func (reg *registry) list(tenant string) []api.Session {
	reg.mu.Lock()
	var own []*session
	for _, s := range reg.sessions {
		if s.tenant == tenant {
			own = append(own, s)
		}
	}
	reg.mu.Unlock()
	out := make([]api.Session, 0, len(own))
	for _, s := range own {
		s.lock()
		if !s.closed {
			out = append(out, s.snapshot())
		}
		s.unlock()
	}
	// nextID is monotonic, so id length then value sorts by age.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && older(out[j].ID, out[j-1].ID); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// older orders "s-<n>" ids by their numeric suffix.
func older(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// close removes and tears down tenant's session id. The registry entry
// goes first (no new requests can find it), then the session closes
// under its own lock, after any in-flight batch finishes.
func (reg *registry) close(tenant, id string) *api.Error {
	reg.mu.Lock()
	s := reg.sessions[id]
	if s == nil || s.tenant != tenant {
		reg.mu.Unlock()
		return api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"tenant %q has no session %q", tenant, id)
	}
	delete(reg.sessions, id)
	reg.usage(tenant).live--
	reg.mu.Unlock()
	s.close()
	return nil
}

// reapIdle closes every session idle since before the cutoff — one
// janitor sweep. The idle re-check happens under the session lock: a
// request that slipped in after the scan refreshes lastUsed and saves
// the session. Returns the ids reaped, for logs and tests.
func (reg *registry) reapIdle(cutoff time.Time) []string {
	reg.mu.Lock()
	stale := make([]*session, 0)
	for _, s := range reg.sessions {
		stale = append(stale, s)
	}
	reg.mu.Unlock()

	var reaped []string
	for _, s := range stale {
		s.lock()
		idle := !s.closed && s.lastUsed.Before(cutoff)
		if idle {
			// Remove from the registry before closing, mirroring close.
			reg.mu.Lock()
			if reg.sessions[s.id] == s {
				delete(reg.sessions, s.id)
				reg.usage(s.tenant).live--
			} else {
				idle = false // raced with an explicit DELETE
			}
			reg.mu.Unlock()
		}
		if idle {
			s.closeLocked()
			reaped = append(reaped, s.id)
		}
		s.unlock()
	}
	return reaped
}

// closeAll tears down every session (server shutdown).
func (reg *registry) closeAll() {
	reg.mu.Lock()
	all := make([]*session, 0, len(reg.sessions))
	for _, s := range reg.sessions {
		all = append(all, s)
	}
	reg.sessions = map[string]*session{}
	for _, s := range all {
		reg.usage(s.tenant).live--
	}
	reg.mu.Unlock()
	for _, s := range all {
		s.close()
	}
}
