// Package server is bhd's HTTP layer: the paper's array engine served
// as multi-tenant middleware. Every tenant session is an API resource
// (create / submit batch / read array / stats / close) multiplexed onto
// ONE shared bohrium.Runtime — one worker pool, one fingerprint-keyed
// plan cache, one buffer recycle pool — through the backend seam, so a
// batch one tenant compiled is a plan-cache hit for every tenant
// flushing the same structure. The wire format of a batch is the
// docs/bytecode.md listing text, parsed by internal/bytecode; the wire
// protocol is specified in docs/api.md and typed in
// internal/server/api.
//
// The handlers sit behind the middleware chain in
// internal/server/middleware — outermost first: request logging, panic
// recovery (an engine panic becomes one tenant's 500, not a dead
// daemon), bearer-token auth through a token→tenant cache, and
// per-tenant quota admission. Sessions idle longer than the configured
// timeout are reaped by a janitor goroutine so abandoned tenants cannot
// leak registers, executors, or runtime registry entries.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bohrium"
	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/server/api"
	"bohrium/internal/server/middleware"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// syncFormat matches cmd/bhrun's register printing exactly, so a batch
// submitted over HTTP formats its synced registers byte-identically to
// the same listing run in process.
var syncFormat = tensor.FormatOptions{MaxPerDim: 10, Precision: 6}

// Config assembles a daemon. Auth is the only required field.
type Config struct {
	// Runtime is the shared runtime every session multiplexes onto; nil
	// selects bohrium.DefaultRuntime().
	Runtime *bohrium.Runtime
	// Auth resolves bearer tokens to tenants. Required. It is wrapped
	// in a token→tenant cache with TokenTTL.
	Auth middleware.Authenticator
	// TokenTTL bounds the token cache entries (0: one minute).
	TokenTTL time.Duration
	// Quotas meters each tenant; zero fields are unlimited.
	Quotas Quotas
	// MaxBodyBytes caps any request body (0: 1 MiB). Larger bodies get
	// the 413 envelope.
	MaxBodyBytes int64
	// IdleTimeout reaps sessions with no request for this long
	// (0: five minutes).
	IdleTimeout time.Duration
	// JanitorInterval is the reaper period (0: IdleTimeout/4, floored
	// at one second; negative: no janitor goroutine — tests drive
	// ReapIdle directly).
	JanitorInterval time.Duration
	// Logger receives request lines, panics, and janitor reports; nil
	// discards.
	Logger *log.Logger
	// Now is the clock (nil: time.Now), injectable for janitor tests.
	Now func() time.Time
	// SubmitTimeout bounds how long a batch submission may wait for the
	// session lock plus (async) an executor queue slot before it is shed
	// with a retryable 503 (0: one second). The client disconnecting
	// sheds it immediately.
	SubmitTimeout time.Duration
	// WaitTimeout bounds how long a read may wait for the session lock
	// plus the async pipeline fence before it is shed with a retryable
	// 503 (0: one minute). Cancellation abandons only the wait — queued
	// batches keep executing and a later read observes their results.
	WaitTimeout time.Duration
	// QueueDepth is each async session's executor queue depth — how many
	// batches may sit submitted-not-yet-executed before submissions block
	// and then shed (0: vm.DefaultAsyncDepth).
	QueueDepth int
	// RetryAfterSeconds is the backoff hint attached to every shed
	// response, in the Retry-After header and the envelope (0: one
	// second).
	RetryAfterSeconds int
}

// Server is one bhd daemon: registry, middleware chain, janitor.
type Server struct {
	cfg     Config
	rt      *bohrium.Runtime
	reg     *registry
	tokens  *middleware.TokenCache
	handler http.Handler

	stopJanitor chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once

	// draining flips once at shutdown: the Drain middleware sheds new
	// POSTs while in-flight work completes. inflight counts batch
	// handlers currently executing, for the drain sequencer.
	draining atomic.Bool
	inflight atomic.Int64
}

// New builds a daemon from cfg, starting the janitor unless disabled.
// Close it to tear down every session.
func New(cfg Config) (*Server, error) {
	if cfg.Auth == nil {
		return nil, errors.New("server: Config.Auth is required")
	}
	if cfg.Runtime == nil {
		cfg.Runtime = bohrium.DefaultRuntime()
	}
	if cfg.TokenTTL == 0 {
		cfg.TokenTTL = time.Minute
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.JanitorInterval == 0 {
		cfg.JanitorInterval = cfg.IdleTimeout / 4
		if cfg.JanitorInterval < time.Second {
			cfg.JanitorInterval = time.Second
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SubmitTimeout == 0 {
		cfg.SubmitTimeout = time.Second
	}
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = time.Minute
	}
	if cfg.RetryAfterSeconds == 0 {
		cfg.RetryAfterSeconds = 1
	}

	s := &Server{
		cfg:    cfg,
		rt:     cfg.Runtime,
		reg:    newRegistry(cfg.Runtime, cfg.Quotas, cfg.Now, cfg.QueueDepth),
		tokens: middleware.NewTokenCache(cfg.Auth, cfg.TokenTTL, cfg.Now),
	}

	apiMux := http.NewServeMux()
	apiMux.HandleFunc("POST /v1/sessions", s.handleCreate)
	apiMux.HandleFunc("GET /v1/sessions", s.handleList)
	apiMux.HandleFunc("POST /v1/sessions/{id}/batches", s.handleBatch)
	apiMux.HandleFunc("GET /v1/sessions/{id}/arrays/{reg}", s.handleArray)
	apiMux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleSessionStats)
	apiMux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	apiMux.HandleFunc("GET /v1/stats", s.handleServerStats)

	chained := middleware.Chain(apiMux,
		middleware.Logging(cfg.Logger),
		middleware.Recover(cfg.Logger),
		middleware.Drain(s.Draining, cfg.RetryAfterSeconds),
		middleware.Auth(s.tokens),
		middleware.Quota(s.reg),
	)

	root := http.NewServeMux()
	root.Handle("/v1/", chained)
	root.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.handler = root

	if s.cfg.JanitorInterval > 0 {
		s.stopJanitor = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

// Handler returns the daemon's root handler (the /v1 chain plus the
// unauthenticated /healthz).
func (s *Server) Handler() http.Handler { return s.handler }

// TokenCacheLookups reports the auth cache's hit/miss counters.
func (s *Server) TokenCacheLookups() (hits, misses int64) { return s.tokens.Lookups() }

// ReapIdle runs one janitor sweep now, returning the reaped session
// ids. The janitor goroutine calls it on its ticker; tests with a fake
// clock call it directly. The janitor-skew fault site lets chaos tests
// jump the janitor's clock without touching the request-path clock.
func (s *Server) ReapIdle() []string {
	now := faultinject.Clock(faultinject.JanitorSkew, "janitor", s.cfg.Now())
	return s.reg.reapIdle(now.Add(-s.cfg.IdleTimeout))
}

// BeginDrain flips the server into drain mode: the Drain middleware
// answers every new POST with 503 unavailable + Retry-After while
// reads, deletes, and already-admitted work proceed. Idempotent; there
// is no way back — drain precedes Close.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlightBatches reports batch handlers currently executing plus async
// batches queued behind session executors — the work Drain waits on.
func (s *Server) InFlightBatches() int {
	return int(s.inflight.Load()) + s.reg.pendingBatches()
}

// Drain begins drain mode and waits until every in-flight batch handler
// has returned and every queued async batch has executed, or until ctx
// expires (returning ctx.Err() with work still pending — the caller
// decides whether to Close anyway). New work is shed the moment Drain
// is called; results of completed batches stay readable until Close.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.InFlightBatches() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.cfg.JanitorInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case <-tick.C:
			if reaped := s.ReapIdle(); len(reaped) > 0 {
				s.cfg.Logger.Printf("janitor: reaped %d idle session(s): %v", len(reaped), reaped)
			}
		}
	}
}

// Close stops the janitor and tears down every session. The shared
// runtime is the caller's: Close never touches its worker pool.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.stopJanitor != nil {
			close(s.stopJanitor)
			<-s.janitorDone
		}
		s.reg.closeAll()
	})
}

// tenant extracts the authenticated tenant; the auth middleware
// guarantees it is present on every /v1 request.
func tenant(r *http.Request) string {
	t, _ := middleware.Tenant(r.Context())
	return t
}

// lockFor takes the session for one of s's handlers within the named
// deadline: "submit" (SubmitTimeout) or "wait" (WaitTimeout), derived
// from the request so a client that disconnects gives up at once. A lock
// that does not come in time is a retryable 503 and a session closed
// meanwhile is a 404; otherwise the idle clock is refreshed and the
// handler holds the lock until it calls release. The returned context
// keeps bounding the handler's wait for a queue slot or for the fence.
func (sess *session) lockFor(s *Server, r *http.Request, deadline string) (ctx context.Context, release func(), apiErr *api.Error) {
	d := s.cfg.WaitTimeout
	if deadline == "submit" {
		d = s.cfg.SubmitTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if !sess.lockCtx(ctx) {
		cancel()
		return nil, nil, s.overloaded(
			"session %q is busy: no session lock within the %v %s deadline", sess.id, d, deadline)
	}
	if sess.closed {
		sess.unlock()
		cancel()
		return nil, nil, api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"tenant %q has no session %q", tenant(r), sess.id)
	}
	sess.lastUsed = s.cfg.Now()
	return ctx, func() { sess.unlock(); cancel() }, nil
}

// abandoned reports whether err is a deadline-bounded wait giving up (the
// request's deadline or its client went away) rather than a failure of
// the work itself.
func abandoned(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// overloaded builds the retryable 503 every shed path returns: queue
// full past the submit deadline, session lock not acquired in time, or
// a read fence outrunning the wait deadline.
func (s *Server) overloaded(format string, args ...any) *api.Error {
	return api.Errorf(http.StatusServiceUnavailable, api.CodeOverloaded,
		format, args...).Retry(s.cfg.RetryAfterSeconds)
}

// handleCreate: POST /v1/sessions.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, apiErr := s.readBody(w, r)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	var req api.CreateSession
	if len(body) > 0 {
		if err := decodeStrict(body, &req); err != nil {
			api.WriteError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
				"malformed create request: %v", err))
			return
		}
	}
	sess, apiErr := s.reg.create(tenant(r), req)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	sess.lock()
	snap := sess.snapshot()
	sess.unlock()
	api.WriteJSON(w, http.StatusCreated, snap)
}

// decodeStrict decodes one JSON value into v, rejecting unknown fields
// and trailing data: a client that asks for a setting the server does not
// have must hear so, not run without it.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// handleList: GET /v1/sessions.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.SessionList{Sessions: s.reg.list(tenant(r))})
}

// handleDelete: DELETE /v1/sessions/{id}. A second delete of the same
// session is a 404: the resource is gone.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if apiErr := s.reg.close(tenant(r), r.PathValue("id")); apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleBatch: POST /v1/sessions/{id}/batches. The body is a
// docs/bytecode.md listing; it is parsed, validated, resolved through
// the session's plan resolver (looked up in the shared plan cache, and
// optimized and compiled only on a miss), and executed — synchronously
// (200 with the synced registers) or onto the session's async executor
// (202, read an array to fence).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	ten := tenant(r)
	sess, apiErr := s.reg.lookup(ten, r.PathValue("id"))
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	body, apiErr := s.readBody(w, r)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	if apiErr := s.reg.chargeBytes(ten, int64(len(body))); apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}

	// Admission deadline: the session lock and (async) an executor queue
	// slot must both be acquired within SubmitTimeout or the submission
	// is shed with a retryable 503 — bounded latency instead of a hung
	// handler. A client that disconnects sheds immediately; shed
	// submissions refund their byte charge (the retry must not pay twice).
	actx, release, apiErr := sess.lockFor(s, r, "submit")
	if apiErr != nil {
		if apiErr.Retryable {
			s.reg.refundBytes(ten, int64(len(body)))
		}
		api.WriteError(w, apiErr)
		return
	}
	defer release()
	if err := sess.be.Err(); err != nil {
		api.WriteError(w, api.Errorf(http.StatusConflict, api.CodePipeline,
			"session pipeline failed: %v", err))
		return
	}

	prog, names, err := bytecode.ParseNames(string(body))
	if err != nil {
		api.WriteError(w, api.Errorf(http.StatusBadRequest, api.CodeParse, "%v", err))
		return
	}
	if err := prog.Validate(); err != nil {
		api.WriteError(w, api.Errorf(http.StatusBadRequest, api.CodeInvalid, "%v", err))
		return
	}
	res, err := sess.plans.Resolve(prog, sess.plans.Key(prog))
	if err != nil {
		if errors.As(err, new(*backend.OptimizeError)) {
			err = fmt.Errorf("optimizer rejected batch: %w", err)
		}
		api.WriteError(w, api.Errorf(http.StatusBadRequest, api.CodeInvalid, "%v", err))
		return
	}
	// The response describes what executes: the plan's optimized program,
	// which on a hit another session may have compiled. A batch that
	// optimizes to nothing has no plan, no instructions and nothing synced.
	var executed []bytecode.Instruction
	if res.Plan != nil {
		executed = res.Plan.Program().Instrs
	}
	// A synchronous session executes the batch here and an async one
	// queues it. Only a queue slot's wait can end the submit deadline.
	xerr := sess.be.Submit(actx, res.Plan, res.Consts)
	if abandoned(xerr) {
		s.reg.refundBytes(ten, int64(len(body)))
		api.WriteError(w, s.overloaded(
			"session %q shed a batch after the %v submit deadline: %v", sess.id, s.cfg.SubmitTimeout, xerr))
		return
	}

	// The batch is committed (a SHED submission booked nothing above),
	// even when it failed to execute: remember where its names landed so
	// reads can address the registers, and count it.
	for name, id := range names {
		if info, ok := prog.Reg(id); ok {
			sess.regs[name] = regEntry{id: id, dtype: info.DType, n: info.Len}
		}
	}
	sess.batches++
	sess.submittedBytes += int64(len(body))
	switch {
	case errors.Is(xerr, vm.ErrMemoryPressure):
		api.WriteError(w, api.Errorf(http.StatusServiceUnavailable, api.CodeMemoryPressure,
			"%v", xerr).Retry(s.cfg.RetryAfterSeconds))
		return
	case xerr != nil:
		api.WriteError(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeExec, "%v", xerr))
		return
	}
	result := api.BatchResult{
		Session:      sess.id,
		Batch:        sess.batches,
		Instructions: len(executed),
		Async:        sess.be.Async(),
	}
	if result.Async {
		api.WriteJSON(w, http.StatusAccepted, result)
		return
	}
	result.Synced = s.syncedRegisters(sess, executed, names)
	api.WriteJSON(w, http.StatusOK, result)
}

// syncedRegisters formats every BH_SYNCed register of an executed
// instruction stream, exactly as cmd/bhrun prints them. Caller holds the
// session lock.
func (s *Server) syncedRegisters(sess *session, executed []bytecode.Instruction, names map[string]bytecode.RegID) []api.SyncedRegister {
	rev := make(map[bytecode.RegID]string, len(names))
	for name, id := range names {
		rev[id] = name
	}
	var out []api.SyncedRegister
	for i := range executed {
		in := &executed[i]
		if in.Op != bytecode.OpSync {
			continue
		}
		name, ok := rev[in.Out.Reg]
		if !ok {
			name = in.Out.Reg.String()
		}
		sr := api.SyncedRegister{Reg: name}
		if t, ok := sess.be.Tensor(in.Out.Reg, in.Out.View); ok {
			sr.Text = t.Format(syncFormat)
		} else {
			sr.Text = "<freed>"
		}
		out = append(out, sr)
	}
	return out
}

// handleArray: GET /v1/sessions/{id}/arrays/{reg}. Reads the register's
// current contents through its full declared view. On an async session
// the read fences first — every submitted batch finishes (or the sticky
// pipeline error surfaces as a 409). The fence is bounded by WaitTimeout
// and by the client's connection: expiry or disconnect abandons only
// the WAIT (a retryable 503) — queued batches keep executing and a
// later read observes their results; in-flight execution is never
// canceled.
func (s *Server) handleArray(w http.ResponseWriter, r *http.Request) {
	ten := tenant(r)
	sess, apiErr := s.reg.lookup(ten, r.PathValue("id"))
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	wctx, release, apiErr := sess.lockFor(s, r, "wait")
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	defer release()
	if err := sess.be.Wait(wctx); err != nil {
		if abandoned(err) {
			api.WriteError(w, s.overloaded(
				"session %q: pipeline fence abandoned after the %v wait deadline; queued batches continue",
				sess.id, s.cfg.WaitTimeout))
			return
		}
		api.WriteError(w, api.Errorf(http.StatusConflict, api.CodePipeline,
			"session pipeline failed: %v", err))
		return
	}

	name := r.PathValue("reg")
	entry, ok := sess.regs[name]
	if !ok {
		api.WriteError(w, api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"session %q has no array %q", sess.id, name))
		return
	}
	t, ok := sess.be.Tensor(entry.id, tensor.NewView(tensor.MustShape(entry.n)))
	if !ok {
		api.WriteError(w, api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"array %q has no buffer (freed and not redefined)", name))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Array{
		Reg:    name,
		DType:  entry.dtype.String(),
		Len:    entry.n,
		Text:   t.Format(syncFormat),
		Values: t.Float64Slice(),
	})
}

// handleSessionStats: GET /v1/sessions/{id}/stats.
func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess, apiErr := s.reg.lookup(tenant(r), r.PathValue("id"))
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	wctx, release, apiErr := sess.lockFor(s, r, "wait")
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	defer release()
	// Counters are deterministic after the fence; a sticky pipeline error
	// is ignored here (reads report it), but an expired fence sheds —
	// counters mid-pipeline are not stats.
	if err := sess.be.Wait(wctx); abandoned(err) {
		api.WriteError(w, s.overloaded(
			"session %q: stats fence abandoned after the %v wait deadline", sess.id, s.cfg.WaitTimeout))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.SessionStats{
		Session: sess.snapshot(),
		VM:      api.StatsFromVM(sess.be.Stats()),
	})
}

// handleServerStats: GET /v1/stats — the shared engine as a whole.
func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	eng := s.rt.Engine()
	api.WriteJSON(w, http.StatusOK, api.ServerStats{
		Sessions:        s.rt.Sessions(),
		PlanCacheLen:    s.rt.PlanCacheLen(),
		LiveBytes:       eng.LiveBytes(),
		MemorySheds:     eng.MemorySheds(),
		InFlightBatches: s.InFlightBatches(),
		VM:              api.StatsFromVM(s.rt.Stats()),
	})
}

// readBody reads a capped request body, mapping the cap to the 413
// envelope.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *api.Error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, api.Errorf(http.StatusRequestEntityTooLarge, api.CodeTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
			"reading request body: %v", err)
	}
	return body, nil
}
