// Command bhd serves the shared runtime as a multi-tenant HTTP
// service — the paper's array engine as long-running middleware.
// Clients authenticate with bearer tokens, create sessions (each one a
// machine on the daemon's single shared engine), submit textual
// byte-code batches, and read synced registers back; docs/api.md
// specifies the wire protocol.
//
// Usage:
//
//	bhd [-addr host:port] [-token tenant=secret]... [-workers n]
//	    [-max-sessions n] [-max-submitted-bytes n]
//	    [-max-queued-batches n] [-body-limit n] [-idle-timeout d]
//	    [-token-ttl d] [-submit-timeout d] [-wait-timeout d]
//	    [-queue-depth n] [-memory-watermark n] [-drain-timeout d]
//	    [-quiet]
//
// -token is repeatable: each occurrence maps one bearer secret to the
// tenant it authenticates. At least one is required — bhd refuses to
// serve an engine nobody can be authorized against. The -max-* flags
// set the per-tenant quotas (0 = unlimited); -idle-timeout bounds how
// long an untouched session survives before the janitor reaps it.
//
// The overload knobs bound how long the daemon holds a request before
// shedding it with a retryable 503 + Retry-After: -submit-timeout for
// batch admission (session lock plus an async queue slot),
// -wait-timeout for reads fencing an async pipeline, -queue-depth for
// each async session's executor queue, and -memory-watermark for the
// engine's graceful-degradation byte budget (0 = unlimited; over it,
// shareable caches shed before allocations are denied).
//
// bhd exits cleanly on SIGINT/SIGTERM: new work is refused with 503 +
// Retry-After while in-flight batches drain (bounded by
// -drain-timeout), then every session closes and the engine shuts
// down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bohrium"
	"bohrium/internal/server"
	"bohrium/internal/server/middleware"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "bhd:", err)
		os.Exit(1)
	}
}

// tokenFlag accumulates repeated -token tenant=secret mappings into the
// secret→tenant table the auth middleware resolves against.
type tokenFlag struct{ tokens middleware.StaticTokens }

func (f *tokenFlag) String() string { return fmt.Sprintf("%d token(s)", len(f.tokens)) }

func (f *tokenFlag) Set(v string) error {
	tenant, secret, ok := strings.Cut(v, "=")
	if !ok || tenant == "" || secret == "" {
		return fmt.Errorf("-token wants tenant=secret, got %q", v)
	}
	if f.tokens == nil {
		f.tokens = middleware.StaticTokens{}
	}
	if prev, dup := f.tokens[secret]; dup && prev != tenant {
		return fmt.Errorf("-token secret already maps to tenant %q", prev)
	}
	f.tokens[secret] = tenant
	return nil
}

// run parses flags and serves until ctx (or a termination signal when
// ctx is nil) ends the daemon. The bound address is printed to stdout
// once listening, so callers starting bhd on ":0" can find it.
func run(args []string, stdout, stderr io.Writer, ctx context.Context) error {
	fs := flag.NewFlagSet("bhd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8700", "listen address")
	var tokens tokenFlag
	fs.Var(&tokens, "token", "tenant=secret bearer credential (repeatable, at least one required)")
	workers := fs.Int("workers", 0, "shared engine worker pool size (0 = GOMAXPROCS)")
	maxSessions := fs.Int("max-sessions", 0, "per-tenant live session cap (0 = unlimited)")
	maxBytes := fs.Int64("max-submitted-bytes", 0, "per-tenant cumulative batch byte cap (0 = unlimited)")
	maxQueued := fs.Int("max-queued-batches", 0, "per-tenant queued async batch cap (0 = unlimited)")
	bodyLimit := fs.Int64("body-limit", 0, "request body size cap in bytes (0 = 1 MiB)")
	idleTimeout := fs.Duration("idle-timeout", 5*time.Minute, "reap sessions idle this long")
	tokenTTL := fs.Duration("token-ttl", time.Minute, "token→tenant cache entry lifetime")
	submitTimeout := fs.Duration("submit-timeout", time.Second, "shed batch submissions not admitted within this deadline")
	waitTimeout := fs.Duration("wait-timeout", time.Minute, "shed reads whose pipeline fence outruns this deadline")
	queueDepth := fs.Int("queue-depth", 0, "async executor queue depth per session (0 = default)")
	memWatermark := fs.Int("memory-watermark", 0, "engine memory high watermark in bytes (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "bound on draining in-flight batches at shutdown")
	quiet := fs.Bool("quiet", false, "suppress per-request log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if len(tokens.tokens) == 0 {
		return errors.New("no -token tenant=secret credentials given; refusing to serve unauthenticatable engine")
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *submitTimeout <= 0 {
		return fmt.Errorf("-submit-timeout must be positive, got %v", *submitTimeout)
	}
	if *waitTimeout <= 0 {
		return fmt.Errorf("-wait-timeout must be positive, got %v", *waitTimeout)
	}
	if *queueDepth < 0 {
		return fmt.Errorf("-queue-depth must not be negative, got %d", *queueDepth)
	}
	if *memWatermark < 0 {
		return fmt.Errorf("-memory-watermark must not be negative, got %d", *memWatermark)
	}

	logger := log.New(stderr, "bhd: ", log.LstdFlags)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}

	rt := bohrium.NewRuntime(&bohrium.RuntimeConfig{
		Workers:             *workers,
		MemoryHighWatermark: *memWatermark,
	})
	defer rt.Close()

	srv, err := server.New(server.Config{
		Runtime:  rt,
		Auth:     tokens.tokens,
		TokenTTL: *tokenTTL,
		Quotas: server.Quotas{
			MaxSessions:       *maxSessions,
			MaxSubmittedBytes: *maxBytes,
			MaxQueuedBatches:  *maxQueued,
		},
		MaxBodyBytes:  *bodyLimit,
		IdleTimeout:   *idleTimeout,
		Logger:        logger,
		SubmitTimeout: *submitTimeout,
		WaitTimeout:   *waitTimeout,
		QueueDepth:    *queueDepth,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bhd listening on http://%s\n", ln.Addr())

	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer cancel()
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new work (503 + Retry-After via the
	// Drain middleware) while in-flight batches complete, bounded by
	// -drain-timeout; then close the listener and connections.
	logger.Printf("draining: refusing new work, waiting up to %v for in-flight batches", *drainTimeout)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain timed out with %d batch(es) still in flight; closing anyway", srv.InFlightBatches())
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-serveErr // http.ErrServerClosed
	return nil
}
