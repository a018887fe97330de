package vm

import "sync"

// workerPool is a fixed set of long-lived goroutines consuming closures.
// Sweeps submit chunk jobs and wait; the pool amortizes goroutine start-up
// across the whole run, standing in for the paper backend's OpenCL queue.
// One pool may serve many Machines concurrently (the shared-runtime
// configuration): submissions from different sessions interleave freely,
// and close waits for every in-flight parallelFor before tearing the
// workers down, so a session mid-sweep can never send on a closed channel.
type workerPool struct {
	jobs    chan func() // immutable after newWorkerPool (the channel; close closes it under mu)
	done    sync.WaitGroup
	workers int // immutable after newWorkerPool

	// inflight counts parallelFor calls that are (or are about to be)
	// submitting chunk jobs. close flips closed first, then waits out
	// inflight, so every submitted chunk runs before the jobs channel
	// goes away, and a parallelFor that starts after close falls back to
	// running inline on its caller.
	mu       sync.Mutex
	inflight sync.WaitGroup
	closed   bool // guarded by mu
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		jobs:    make(chan func()),
		workers: workers,
	}
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.done.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// enter registers an in-flight parallelFor. It returns false when the pool
// is already closed — the caller must then run its range inline.
func (p *workerPool) enter() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.inflight.Add(1)
	return true
}

// close stops the workers and waits for them to exit. Submissions already
// in flight complete first; a parallelFor racing with close degrades to
// inline execution instead of panicking. close is idempotent: every call
// returns only once the workers have exited.
func (p *workerPool) close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		p.inflight.Wait()
		close(p.jobs)
	}
	p.done.Wait()
}

// parallelFor splits [0, n) across the pool using the pool's own width —
// the single-machine configuration, and the form the tests drive directly.
func (p *workerPool) parallelFor(n, threshold int, body func(lo, hi int)) {
	parRunner{pool: p, width: p.workers}.parallelFor(n, threshold, body)
}

// parRunner is one session's handle on a (possibly shared) worker pool: the
// pool supplies the goroutines, width caps how many chunks this session
// fans a sweep out into. A Machine on a shared Engine keeps its own width
// (Config.Workers), so sessions with different parallelism settings can
// coexist on one pool; chunk boundaries depend only on width and n, never
// on how busy the pool is, which keeps results binary-identical between
// shared and private configurations.
type parRunner struct {
	pool  *workerPool
	width int
}

// chunks reports how parallelFor splits [0, n): chunk c of count starts at
// c*size and none is empty, so a body can index per-chunk state by lo/size.
func (pr parRunner) chunks(n, threshold int) (count, size int) {
	if pr.width <= 1 || n < threshold {
		return 1, n
	}
	count = min(pr.width, n)
	size = (n + count - 1) / count
	return (n + size - 1) / size, size
}

// parallelFor runs body over [0, n) split into per-width chunks. Small
// ranges run inline on the caller's goroutine; the last chunk also runs
// inline so one worker fewer is needed. If the pool has been closed the
// whole range runs inline — correctness never depends on the pool.
func (pr parRunner) parallelFor(n, threshold int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks, size := pr.chunks(n, threshold)
	if chunks == 1 || !pr.pool.enter() {
		body(0, n)
		return
	}
	defer pr.pool.inflight.Done()
	var wg sync.WaitGroup
	for c := 0; c < chunks-1; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		pr.pool.jobs <- func() {
			defer wg.Done()
			body(lo, hi)
		}
	}
	body((chunks-1)*size, n)
	wg.Wait()
}
