package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bohrium/benchmark/ref"
	"bohrium/benchmark/span"
)

// bhd-tenants: the pre-built cmd/bhd as a child process on a loopback
// port the kernel picks, two tenants with one keep-alive connection and
// one synchronous optimize:true session each, zipfian draws from a
// seeded catalogue of small listings, every 8th operation a read.

const (
	bhdTenants     = 2
	catalogueSize  = 48
	zipfExponent   = 1.1
	readEvery      = 8 // operation i is a read when i%readEvery == readEvery-1
	daemonDeadline = 15 * time.Second
)

// buildDaemon compiles cmd/bhd into .bench_build/bin/ under the
// repository root before any clock starts. The Go environment is the
// caller's: run.sh has pointed the build cache into .bench_build/, and
// under go test it is the cache the test binary itself was built with.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "bhd")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/bhd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bhd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running bhd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once Wait has returned
	stderr bytes.Buffer
}

// firstLine forwards the first line written to it and discards the rest.
type firstLine struct {
	buf  []byte
	line chan string
	sent bool
}

func (w *firstLine) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.sent = true
			w.line <- string(w.buf[:i])
		}
	}
	return len(p), nil
}

// startDaemon spawns bhd with default flags (only the listen address,
// the tenants' tokens and -quiet are given), learns the port from its
// first output line and waits until /healthz answers.
func startDaemon(bin string, tokens []string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	for i, tok := range tokens {
		args = append(args, "-token", fmt.Sprintf("tenant%d=%s", i, tok))
	}
	out := &firstLine{line: make(chan string, 1)}
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout = out
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bhd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a daemon we terminate says nothing
		close(d.exited)
	}()
	select {
	case line := <-out.line:
		_, addr, ok := strings.Cut(line, "listening on ")
		if !ok {
			d.stop()
			return nil, fmt.Errorf("bhd: unexpected first line %q", line)
		}
		d.base = strings.TrimSpace(addr)
	case <-d.exited:
		return nil, fmt.Errorf("bhd exited before listening: %s", d.stderr.String())
	case <-time.After(daemonDeadline):
		d.stop()
		return nil, errors.New("bhd did not report its address in time")
	}
	probe := &http.Client{}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(daemonDeadline)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bhd /healthz not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the child with SIGTERM, waits for it to be reaped and
// kills it if the graceful drain does not finish. It returns the child's
// peak resident set (VmHWM) in KiB, read just before the signal.
func (d *daemon) stop() int {
	peak := vmHWM(d.cmd.Process.Pid)
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited: nothing to signal
	select {
	case <-d.exited:
	case <-time.After(daemonDeadline):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return peak
}

// vmHWM reads a process's peak resident set size in KiB from /proc.
func vmHWM(pid int) int {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
			return kib
		}
	}
	return 0
}

// resetVmHWM restarts this process's peak resident set at its current
// resident set (writing 5 to clear_refs, Linux 4.0+). Where /proc does
// not allow it the peak stays process-wide, which README.md notes.
func resetVmHWM() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// A catalogue entry is one listing structure. Register a0 is the
// one-element result every entry declares first, so it is the same
// positional register across a session's batches; the work arrays after
// it are freed before the batch ends. Half the entries take a
// per-request scalar (the %s in text); want gives the closed-form result
// for it.
type entry struct {
	text       string
	parametric bool
	want       func(c float64) float64
}

func (e *entry) render(c int) string {
	if !e.parametric {
		return e.text
	}
	return strings.Replace(e.text, "%s", strconv.Itoa(c), 1)
}

// buildCatalogue makes the listing structures, their constants drawn
// from the seed: four families (add chains that merge, powers that
// expand, an affine map of BH_RANGE, a repeated subexpression), array
// lengths up to maxN, each reduced to a scalar whose value has a closed
// form.
func buildCatalogue(seed int64, maxN int) []entry {
	cat := make([]entry, catalogueSize)
	for j := range cat {
		// What decides an entry's cost — its array length, chain length
		// and exponent — is drawn per rank, the same for every seed: the
		// popular ranks take most requests, so a seeded length there made
		// throughput differ by 15 % between seeds. The seed draws the
		// constants, and with them every expected value.
		shape := mix(uint64(j) + 1)
		m := mix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(j) + 1)
		n := shape.between(16, maxN)
		fn := float64(n)
		parametric := j%2 == 0
		var b strings.Builder
		regs := func(count int) {
			b.WriteString(".reg a0 float64 1\n")
			for r := 1; r <= count; r++ {
				fmt.Fprintf(&b, ".reg a%d float64 %d\n", r, n)
			}
		}
		finish := func(result string, count int) {
			fmt.Fprintf(&b, "BH_ADD_REDUCE a0 [0:1:1] %s axis=0\n", result)
			for r := 1; r <= count; r++ {
				fmt.Fprintf(&b, "BH_FREE a%d\n", r)
			}
			b.WriteString("BH_SYNC a0\n")
		}
		// first is the constant a parametric entry takes per request; a
		// constant-free entry bakes in a drawn one.
		first := "%s"
		fixed := float64(m.between(1, 100))
		if !parametric {
			first = strconv.Itoa(int(fixed))
		}
		pick := func(c float64) float64 {
			if parametric {
				return c
			}
			return fixed
		}
		var want func(c float64) float64
		switch j / 2 % 4 {
		case 0: // add chain
			regs(1)
			fmt.Fprintf(&b, "BH_IDENTITY a1 %s\n", first)
			var sum float64
			for k := shape.between(2, 16); k > 0; k-- {
				c := m.between(1, 9)
				sum += float64(c)
				fmt.Fprintf(&b, "BH_ADD a1 a1 %d\n", c)
			}
			finish("a1", 1)
			want = func(c float64) float64 { return fn * (pick(c) + sum) }
		case 1: // power of a constant vector
			regs(2)
			e := shape.between(2, 12)
			fmt.Fprintf(&b, "BH_IDENTITY a1 %s\nBH_MULTIPLY a1 a1 0.01\nBH_ADD a1 a1 1\nBH_POWER a2 a1 %d\n", first, e)
			finish("a2", 2)
			want = func(c float64) float64 { return fn * math.Pow(pick(c)*0.01+1, float64(e)) }
		case 2: // affine map of the element index
			regs(1)
			s := m.between(2, 9)
			fmt.Fprintf(&b, "BH_RANGE a1\nBH_MULTIPLY a1 a1 %d\nBH_ADD a1 a1 %s\n", s, first)
			finish("a1", 1)
			want = func(c float64) float64 { return float64(s)*fn*(fn-1)/2 + pick(c)*fn }
		default: // the same sum computed twice, then multiplied
			regs(3)
			c1 := m.between(1, 9)
			fmt.Fprintf(&b, "BH_IDENTITY a1 %s\nBH_ADD a2 a1 %d\nBH_ADD a3 a1 %d\nBH_MULTIPLY a2 a2 a3\n", first, c1, c1)
			finish("a2", 3)
			want = func(c float64) float64 { v := pick(c) + float64(c1); return fn * v * v }
		}
		cat[j] = entry{text: b.String(), parametric: parametric, want: want}
	}
	return cat
}

// catalogueHash digests every listing text: equal seeds must give equal
// catalogues byte for byte.
func catalogueHash(cat []entry) string {
	h := sha256.New()
	for _, e := range cat {
		io.WriteString(h, e.text)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// zipfCDF is the cumulative popularity of catalogue ranks under
// P(k) ∝ 1/(1+k)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(1+k), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// tenant is one closed-loop client: its credentials, keep-alive
// connection and session, and what its last batch left in a0.
type tenant struct {
	token    string
	http     *http.Client
	session  string
	lastWant float64
}

type bhdSession struct {
	daemon    *daemon
	catalogue []entry
	cdf       []float64
	seed      int64
	tenants   []*tenant
	sheds     atomic.Int64
	retries   atomic.Int64
}

func openBhd(seed int64, sz sizes, env *environment) (session, error) {
	s := &bhdSession{seed: seed, cdf: zipfCDF(catalogueSize, zipfExponent)}
	s.catalogue = buildCatalogue(seed, sz.bhdMaxN)
	tokens := make([]string, bhdTenants)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("secret-%d-%d", seed, i)
	}
	d, err := startDaemon(env.bhdBin, tokens)
	if err != nil {
		return nil, err
	}
	s.daemon = d
	for _, tok := range tokens {
		t := &tenant{token: tok, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
		var created struct {
			ID string `json:"id"`
		}
		if err := s.call(context.Background(), t, http.MethodPost, "/v1/sessions", `{"optimize":true}`, &created); err != nil {
			s.close()
			return nil, fmt.Errorf("create session: %w", err)
		}
		t.session = created.ID
		s.tenants = append(s.tenants, t)
	}
	return s, nil
}

// errShed marks a request the daemon refused with a 503.
var errShed = errors.New("shed with 503")

// call sends one request and decodes a 2xx JSON body into out. A 503 is
// counted, its Retry-After honoured, and the request re-sent once; the
// caller still sees errShed, because a refused batch has failed whatever
// the retry does.
func (s *bhdSession) call(ctx context.Context, t *tenant, method, path, body string, out any) error {
	shed := false
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, s.daemon.base+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer "+t.token)
		resp, err := t.http.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt == 0 {
			shed = true
			s.sheds.Add(1)
			s.retries.Add(1)
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			select {
			case <-time.After(time.Duration(wait) * time.Second):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
		if out != nil && len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("%s %s: %w", method, path, err)
			}
		}
		if shed {
			return errShed
		}
		return nil
	}
}

func (s *bhdSession) batch(ctx context.Context, client, i int, tr *span.Recorder) error {
	t := s.tenants[client]
	if i%readEvery == readEvery-1 {
		return s.read(ctx, t, tr)
	}
	m := mix(uint64(s.seed)*0xd1342543de82ef95 + uint64(client)<<40 + uint64(i))
	rank := sort.SearchFloat64s(s.cdf, m.float())
	e := &s.catalogue[rank]
	c := m.between(1, 100)

	tr.Begin("batch")
	tr.Begin("record") // the client's side of recording: rendering the listing
	text := e.render(c)
	tr.End()
	var result struct {
		Synced []struct {
			Reg  string `json:"reg"`
			Text string `json:"text"`
		} `json:"synced"`
	}
	tr.Begin("post")
	err := s.call(ctx, t, http.MethodPost, "/v1/sessions/"+t.session+"/batches", text, &result)
	tr.End()
	tr.End()
	if err != nil {
		return err
	}
	want := e.want(float64(c))
	t.lastWant = want
	if len(result.Synced) != 1 {
		return fmt.Errorf("entry %d: %d synced registers, want 1", rank, len(result.Synced))
	}
	// The batch response prints six significant digits.
	got, err := strconv.ParseFloat(strings.Trim(result.Synced[0].Text, "[] "), 64)
	if err != nil || !ref.Close(got, want, 1e-5) {
		return fmt.Errorf("entry %d constant %d: synced %q, closed form %v", rank, c, result.Synced[0].Text, want)
	}
	return nil
}

// read fetches a0 at full precision and compares it with the closed form
// of the tenant's last batch.
func (s *bhdSession) read(ctx context.Context, t *tenant, tr *span.Recorder) error {
	var arr struct {
		Values []float64 `json:"values"`
	}
	tr.Begin("read")
	err := s.call(ctx, t, http.MethodGet, "/v1/sessions/"+t.session+"/arrays/a0", "", &arr)
	tr.End()
	if err != nil {
		return err
	}
	if len(arr.Values) != 1 || !ref.Close(arr.Values[0], t.lastWant, 1e-9) {
		return fmt.Errorf("read a0 = %v, closed form %v", arr.Values, t.lastWant)
	}
	return nil
}

func (s *bhdSession) verify([]int) error { return nil } // every response is checked as it arrives

// counters reads the daemon's aggregate engine counters from
// GET /v1/stats.
func (s *bhdSession) counters() (counters, error) {
	var st struct {
		LiveBytes int `json:"live_bytes"`
		VM        struct {
			Sweeps            int `json:"sweeps"`
			Elements          int `json:"elements"`
			FusedInstructions int `json:"fused_instructions"`
			FusedReductions   int `json:"fused_reductions"`
			BuffersAllocated  int `json:"buffers_allocated"`
			BytesAllocated    int `json:"bytes_allocated"`
			PoolHits          int `json:"pool_hits"`
			PlanHits          int `json:"plan_hits"`
			PlanMisses        int `json:"plan_misses"`
			PlanEvictions     int `json:"plan_evictions"`
		} `json:"vm"`
	}
	if err := s.call(context.Background(), s.tenants[0], http.MethodGet, "/v1/stats", "", &st); err != nil {
		return counters{}, err
	}
	v := st.VM
	return counters{
		sweeps: v.Sweeps, elements: v.Elements,
		fusedInstructions: v.FusedInstructions, fusedReductions: v.FusedReductions,
		planHits: v.PlanHits, planMisses: v.PlanMisses, planEvictions: v.PlanEvictions,
		buffersAlloc: v.BuffersAllocated, bytesAlloc: v.BytesAllocated, poolHits: v.PoolHits,
		sheds: int(s.sheds.Load()), retries: int(s.retries.Load()),
		serverPlanHits: v.PlanHits, serverLiveBytes: st.LiveBytes,
		peak: vmHWM(s.daemon.cmd.Process.Pid),
	}, nil
}

func (s *bhdSession) close() {
	for _, t := range s.tenants {
		t.http.CloseIdleConnections()
	}
	s.daemon.stop()
}

// bhdReplay lists every catalogue entry with its zipf popularity, the
// per-request constant fixed, for the in-process replay that
// http_overhead_us is measured against.
func bhdReplay(seed int64, sz sizes) ([]replayItem, error) {
	cat := buildCatalogue(seed, sz.bhdMaxN)
	cdf := zipfCDF(len(cat), zipfExponent)
	items := make([]replayItem, len(cat))
	prev := 0.0
	for j := range cat {
		items[j] = replayItem{label: fmt.Sprintf("entry-%d", j), weight: cdf[j] - prev, text: cat[j].render(50), reads: true}
		prev = cdf[j]
	}
	return items, nil
}
