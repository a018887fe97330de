// Package api defines the bhd wire protocol: the JSON request and
// response bodies of every endpoint and the structured error envelope
// every failure returns. docs/api.md is the prose form of this file —
// change them together. The package is shared by the server handlers,
// the middleware chain, and the tests that pin the protocol, so the
// envelope can never drift between layers.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"bohrium/internal/vm"
)

// Error codes: stable machine-readable discriminators inside the error
// envelope. Clients switch on Code, not on Message text.
const (
	// CodeUnauthorized: missing, malformed, or unknown bearer token (401).
	CodeUnauthorized = "unauthorized"
	// CodeNotFound: no such session/array for this tenant, including a
	// second DELETE of the same session (404).
	CodeNotFound = "not_found"
	// CodeQuota: a per-tenant quota (live sessions, submitted bytes,
	// queued batches) would be exceeded (429).
	CodeQuota = "quota_exceeded"
	// CodeParse: the batch body is not syntactically valid byte-code (400).
	CodeParse = "parse_error"
	// CodeInvalid: the batch parsed but failed semantic validation or
	// optimization (400).
	CodeInvalid = "invalid_program"
	// CodeBadRequest: malformed JSON body, unknown field, or other
	// unusable request (400).
	CodeBadRequest = "bad_request"
	// CodeTooLarge: the request body exceeds the server's byte cap (413).
	CodeTooLarge = "body_too_large"
	// CodeExec: the batch compiled but execution failed (422); the
	// session stays usable, registers may hold partial results.
	CodeExec = "execute_failed"
	// CodePipeline: an earlier async batch failed and poisoned the
	// session's pipeline; every later submit/read reports it (409).
	CodePipeline = "pipeline_failed"
	// CodeInternal: a handler or engine panic converted to a response by
	// the recovery middleware (500).
	CodeInternal = "internal"
	// CodeOverloaded: the server shed this request under load — the
	// executor queue stayed full past the submit deadline, a session
	// lock could not be taken in time, or a read fence outran the wait
	// deadline (503, retryable; honor Retry-After).
	CodeOverloaded = "overloaded"
	// CodeUnavailable: the server is draining for shutdown and refuses
	// new work; in-flight work is completing (503, retryable against a
	// replacement instance; honor Retry-After).
	CodeUnavailable = "unavailable"
	// CodeMemoryPressure: the engine's memory high watermark denied an
	// allocation after shedding its caches (503, retryable — pressure
	// clears as other sessions free buffers; honor Retry-After).
	CodeMemoryPressure = "memory_pressure"
)

// Error is the wire form of every bhd failure. It implements error so
// server internals can return it through ordinary error plumbing and
// have the transport layer serialize it unchanged.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail; its text is not part of the
	// protocol contract.
	Message string `json:"message"`
	// Status echoes the HTTP status the envelope was sent with.
	Status int `json:"status"`
	// Retryable marks errors a client should retry verbatim after a
	// backoff: the failure is a transient server condition (overload,
	// drain, memory pressure), not a property of the request. Omitted
	// (false) for every terminal error.
	Retryable bool `json:"retryable,omitempty"`
	// RetryAfter, when nonzero, is the server's backoff hint in seconds;
	// it is also sent as the Retry-After response header.
	RetryAfter int `json:"retry_after,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// Retry marks e retryable with the given backoff hint (seconds) and
// returns it, for fluent construction of shed/drain/pressure envelopes.
func (e *Error) Retry(afterSeconds int) *Error {
	e.Retryable = true
	e.RetryAfter = afterSeconds
	return e
}

// Errorf builds an *Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// envelope is the top-level error document: {"error": {...}}.
type envelope struct {
	Error *Error `json:"error"`
}

// WriteError sends err as the structured JSON envelope with its status.
// A nonzero RetryAfter is also sent as the Retry-After header, so
// clients that only look at headers back off correctly too.
func WriteError(w http.ResponseWriter, err *Error) {
	w.Header().Set("Content-Type", "application/json")
	if err.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(err.RetryAfter))
	}
	w.WriteHeader(err.Status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(envelope{Error: err})
}

// WriteJSON sends v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// DecodeError extracts the error envelope from a response body, for
// clients and tests.
func DecodeError(body []byte) (*Error, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Error == nil {
		return nil, fmt.Errorf("api: no error envelope in %q", body)
	}
	return env.Error, nil
}

// CreateSession is the body of POST /v1/sessions. The zero value is a
// synchronous session without the optimizer. A body with any other
// field is a bad_request.
type CreateSession struct {
	// Optimize runs the algebraic rewrite pipeline on every batch before
	// execution (bhrun's -O).
	Optimize bool `json:"optimize,omitempty"`
	// Async pipelines batches through a background executor: submits
	// return 202 immediately and reads fence first (bhrun's -async).
	Async bool `json:"async,omitempty"`
}

// Session describes one live session, returned by create/list/stats.
type Session struct {
	ID             string `json:"id"`
	Tenant         string `json:"tenant"`
	Optimize       bool   `json:"optimize,omitempty"`
	Async          bool   `json:"async,omitempty"`
	Batches        int    `json:"batches"`
	SubmittedBytes int64  `json:"submitted_bytes"`
	// Pending counts async batches submitted but not yet executed;
	// always zero for synchronous sessions.
	Pending int `json:"pending"`
}

// SessionList is the body of GET /v1/sessions: the caller tenant's live
// sessions, oldest first.
type SessionList struct {
	Sessions []Session `json:"sessions"`
}

// SyncedRegister is one BH_SYNCed register of an executed batch, in the
// same "name = values" text form bhrun prints.
type SyncedRegister struct {
	Reg string `json:"reg"`
	// Text is the register's formatted value (tensor text form), or
	// "<freed>" if the batch freed it.
	Text string `json:"text"`
}

// BatchResult is the body of a successful POST .../batches.
type BatchResult struct {
	Session      string `json:"session"`
	Batch        int    `json:"batch"` // 1-based sequence number within the session
	Instructions int    `json:"instructions"`
	// Async marks a 202: the batch was queued, not yet executed, and
	// Synced is empty — read the registers (which fences) instead.
	Async  bool             `json:"async,omitempty"`
	Synced []SyncedRegister `json:"synced,omitempty"`
}

// Array is the body of GET .../arrays/{reg}: one register's current
// contents through its full declared view.
type Array struct {
	Reg   string `json:"reg"`
	DType string `json:"dtype"`
	Len   int    `json:"len"`
	// Text is the canonical formatted value — the differential suites
	// compare it byte-for-byte against in-process execution.
	Text string `json:"text"`
	// Values is the data converted to float64 for programmatic use
	// (lossy above 2^53 for int64).
	Values []float64 `json:"values"`
}

// VMStats is the wire form of the engine's execution counters. It is a
// deliberate copy of vm.Stats so the wire protocol only changes when
// this package does.
type VMStats struct {
	Instructions      int `json:"instructions"`
	Sweeps            int `json:"sweeps"`
	FusedInstructions int `json:"fused_instructions"`
	FusedReductions   int `json:"fused_reductions"` // reduction epilogues only, as vm.Stats counts them
	Elements          int `json:"elements"`
	BuffersAllocated  int `json:"buffers_allocated"`
	BytesAllocated    int `json:"bytes_allocated"`
	PoolHits          int `json:"pool_hits"`
	PlanHits          int `json:"plan_hits"`
	PlanMisses        int `json:"plan_misses"`
	PlanEvictions     int `json:"plan_evictions"`
	Pipelined         int `json:"pipelined"`
}

// StatsFromVM converts engine counters to their wire form.
func StatsFromVM(st vm.Stats) VMStats {
	return VMStats{
		Instructions:      st.Instructions,
		Sweeps:            st.Sweeps,
		FusedInstructions: st.FusedInstructions,
		FusedReductions:   st.FusedReductions,
		Elements:          st.Elements,
		BuffersAllocated:  st.BuffersAllocated,
		BytesAllocated:    st.BytesAllocated,
		PoolHits:          st.PoolHits,
		PlanHits:          st.PlanHits,
		PlanMisses:        st.PlanMisses,
		PlanEvictions:     st.PlanEvictions,
		Pipelined:         st.Pipelined,
	}
}

// SessionStats is the body of GET .../stats: the session plus its own
// engine counters.
type SessionStats struct {
	Session Session `json:"session"`
	VM      VMStats `json:"vm"`
}

// ServerStats is the body of GET /v1/stats: the shared engine seen as a
// whole — every tenant's sessions multiplexed onto one runtime.
type ServerStats struct {
	// Sessions enumerates the runtime's live session labels
	// (tenant/session-id for bhd sessions).
	Sessions []string `json:"sessions"`
	// PlanCacheLen is the number of plans in the shared cache.
	PlanCacheLen int `json:"plan_cache_len"`
	// LiveBytes is the engine's current register-file plus pool
	// residency — the number operators watch to size tenants against
	// the memory budget.
	LiveBytes int `json:"live_bytes"`
	// MemorySheds counts how many times memory pressure forced the
	// engine to shed pooled buffers mid-plan.
	MemorySheds int `json:"memory_sheds"`
	// InFlightBatches is the number of batch handlers currently
	// executing plus async batches queued behind session executors —
	// the work a drain would wait on right now.
	InFlightBatches int `json:"in_flight_batches"`
	// VM aggregates counters across every session the runtime hosted.
	VM VMStats `json:"vm"`
}
