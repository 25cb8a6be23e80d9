package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"misam"
	"misam/internal/server"
)

// target is one in-process server under test: the real internal/server
// handler behind a loopback TCP listener.
type target struct {
	fw     *misam.Framework
	cfg    server.Config
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string

	// ok counts analyze requests answered 200, and warmed the analyses
	// warm resolved directly, for the counter reconciliation.
	ok, warmed atomic.Int64
}

func startTarget(fw *misam.Framework, cfg server.Config) (*target, error) {
	srv, err := server.NewClustered(fw, cfg)
	if err != nil {
		return nil, fmt.Errorf("build server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		fw:     fw,
		cfg:    cfg,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 30 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// stops the server's background workers.
func (t *target) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = t.hs.Shutdown(ctx) // a stuck connection is closed by the timeout; nothing to report
	<-t.served
	t.srv.Close()
}

// conn is one client connection: a transport limited to a single TCP
// connection, so the generator never opens more than len(conns) of them.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}}
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// do sends one request and returns the status and the reply body, which
// stays valid until the next call on c.
func (c *conn) do(req *http.Request) (int, []byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// healthy waits for the server's first answer.
func (c *conn) healthy(t *target) error {
	req, err := http.NewRequest(http.MethodGet, t.url+"/healthz", nil)
	if err != nil {
		return err
	}
	status, body, err := c.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("healthz status %d: %s", status, truncate(body))
	}
	return nil
}

// analyze posts one binary pair and checks the reply against ref.
func (c *conn) analyze(t *target, body []byte, ref *reference) served {
	req, err := http.NewRequest(http.MethodPost, t.url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return served{err: err}
	}
	req.Header.Set("Content-Type", server.BinaryContentType)
	status, reply, err := c.do(req)
	if err != nil {
		return served{err: err}
	}
	if status == http.StatusOK {
		t.ok.Add(1)
	}
	return checkBody(status, reply, ref)
}

// phase records one traffic phase's request accounting.
type phase struct {
	Name      string  `json:"name"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
	// LagP99Ms is how late the open-loop generator dispatched its
	// requests (zero for the other phases).
	LagP99Ms float64 `json:"lag_p99_ms,omitempty"`
	// FirstError is the first failure's message, if any.
	FirstError string `json:"first_error,omitempty"`
}

func newPhase(name string, answers []served, elapsed time.Duration) phase {
	p := phase{Name: name, Sent: len(answers), Seconds: elapsed.Seconds()}
	for _, a := range answers {
		if a.err != nil {
			if p.Failed == 0 {
				p.FirstError = a.err.Error()
			}
			p.Failed++
		}
	}
	p.Succeeded = p.Sent - p.Failed
	return p
}

// serial sends requests [0, n) of the stream in order on one connection
// and returns each answer plus its latency.
func serial(t *target, st *stream, n int, c *conn) ([]served, []time.Duration, time.Duration) {
	answers := make([]served, n)
	lat := make([]time.Duration, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := st.order[i%len(st.order)]
		s := time.Now()
		answers[i] = c.analyze(t, st.bodies[p], &st.refs[p])
		lat[i] = time.Since(s)
	}
	return answers, lat, time.Since(t0)
}

// warm brings the server's analysis cache to the state a long-running
// server reaches on this working set: every distinct pair is sent once,
// which resolves its fast entry, and its full analysis — which on the
// server only sampled background audits would build — is resolved
// through the framework directly.
func warm(t *target, st *stream, c *conn) []served {
	answers := make([]served, len(st.bodies))
	for p := range st.bodies {
		answers[p] = c.analyze(t, st.bodies[p], &st.refs[p])
		a, b, err := decodePair(st.bodies[p])
		if err != nil {
			answers[p] = served{err: err}
			continue
		}
		w, err := misam.NewWorkload(a, b)
		if err == nil {
			_, _, err = t.fw.AnalysisFor(context.Background(), w)
		}
		if err != nil {
			answers[p] = served{err: err}
			continue
		}
		t.warmed.Add(1)
	}
	return answers
}

// openResult is one open-loop phase: per-request latency measured from
// the moment the request was due, and how late the generator ran.
type openResult struct {
	answers []served
	latency []time.Duration
	lag     []time.Duration
	elapsed time.Duration
}

// openLoop sends requests [from, from+n) of the stream, wrapping around
// it, at a fixed rate over conns. A request whose connections are all
// busy waits at the client, and that wait counts in its latency.
func openLoop(t *target, st *stream, from, n int, rate float64, conns []*conn) openResult {
	r := openResult{
		answers: make([]served, n),
		latency: make([]time.Duration, n),
		lag:     make([]time.Duration, n),
	}
	due := make([]time.Time, n)
	jobs := make(chan int, n) // one slot per request: the generator never blocks on a busy client
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range jobs {
				p := st.order[(from+i)%len(st.order)]
				r.answers[i] = c.analyze(t, st.bodies[p], &st.refs[p])
				r.latency[i] = time.Since(due[i])
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due[i] = t0.Add(time.Duration(i) * interval)
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		r.lag[i] = time.Since(due[i])
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	r.elapsed = time.Since(t0)
	return r
}

// closedResult is one closed-loop pass: every answer and the time the
// pass took.
type closedResult struct {
	answers []served
	elapsed time.Duration
}

// closedLoop runs one client per connection, each sending its next
// request only after the previous reply, for d. A unique stream is never
// wrapped: the loop ends early if its pairs run out.
func closedLoop(t *target, st *stream, d time.Duration, wrap bool, conns []*conn) closedResult {
	var next atomic.Int64
	per := make([]closedResult, len(conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if !wrap && i >= len(st.order) {
					return
				}
				p := st.order[i%len(st.order)]
				per[k].answers = append(per[k].answers, c.analyze(t, st.bodies[p], &st.refs[p]))
			}
		}(k, c)
	}
	wg.Wait()
	all := closedResult{elapsed: time.Since(t0)}
	for _, r := range per {
		all.answers = append(all.answers, r.answers...)
	}
	return all
}

// latencyWindows cuts one open slice's latencies into consecutive
// windows of at least minOpenSamples requests each, so every window's
// p99 has at least ten samples beyond it.
func latencyWindows(lat []time.Duration) [][]time.Duration {
	n := len(lat) / minOpenSamples
	if n < 1 {
		n = 1
	}
	wins := make([][]time.Duration, n)
	for k := range wins {
		wins[k] = lat[k*len(lat)/n : (k+1)*len(lat)/n]
	}
	return wins
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(q*float64(len(xs))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// failedLatency stands in for a failed request's latency: it misses any
// latency limit.
const failedLatency = time.Duration(1<<63 - 1)

// reconcile checks the server's public counters against the number of
// requests it answered, after letting background audits finish. A
// mismatch means the pipeline skipped (or repeated) work it reports.
func (t *target) reconcile() (drain time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := t.fw.DrainVerifier(ctx); err != nil {
		return 0, fmt.Errorf("drain verifier: %w", err)
	}
	drain = time.Since(t0)

	n := t.ok.Load()
	var errs []error
	if st := t.srv.Fleet().Stats(); st.Acquires != n {
		errs = append(errs, fmt.Errorf("fleet acquires %d, requests served %d", st.Acquires, n))
	}
	var devReqs int64
	for _, d := range t.srv.Fleet().Devices() {
		devReqs += d.Stats().Requests
	}
	if devReqs != n {
		errs = append(errs, fmt.Errorf("device decide/apply transactions %d, requests served %d", devReqs, n))
	}

	cs, ok := t.fw.CacheStats()
	if !ok {
		errs = append(errs, errors.New("analysis cache disabled"))
	}
	// Every lookup lands in exactly one of these counters; coalesced
	// waiters are shared between the full and fast keyspaces.
	lookups := cs.Hits + cs.Misses + cs.FastHits + cs.FastMisses + cs.Coalesced
	wantFull, fastMin, fastMax := n+t.warmed.Load(), int64(0), int64(0)
	if fp, ok := t.fw.FastPathStats(); ok {
		if fp.Served != n || fp.Fast+fp.Slow != fp.Served {
			errs = append(errs, fmt.Errorf("fast path served %d = fast %d + slow %d, requests served %d",
				fp.Served, fp.Fast, fp.Slow, n))
		}
		v := fp.Verifier
		if v.Verified+v.Errors != v.Offered-v.Dropped {
			errs = append(errs, fmt.Errorf("verifier settled %d of %d accepted audits",
				v.Verified+v.Errors, v.Offered-v.Dropped))
		}
		// Every full-tier request resolves one full analysis, and so does
		// every audit unless audits run on the pruned tier, which bypasses
		// the cache. Every request resolves its fast entry once, or twice
		// when placement plans with it first.
		wantFull = fp.Slow + t.warmed.Load()
		if !t.cfg.PrunedVerify {
			wantFull += v.Verified + v.Errors
		}
		fastMin, fastMax = n, n
		if t.cfg.Placement {
			fastMax = 2 * n
		}
	}
	if lookups < wantFull+fastMin || lookups > wantFull+fastMax {
		errs = append(errs, fmt.Errorf("analysis cache lookups %d, want %d full + %d..%d fast",
			lookups, wantFull, fastMin, fastMax))
	}
	if ts, ok := t.fw.TileCacheStats(); ok && ts.Hits+ts.Misses < cs.Misses {
		errs = append(errs, fmt.Errorf("tile cache lookups %d below the %d analyses built",
			ts.Hits+ts.Misses, cs.Misses))
	}
	return drain, errors.Join(errs...)
}

// reconfigs sums the fleet's bitstream switches.
func (t *target) reconfigs() int64 {
	var n int64
	for _, d := range t.srv.Fleet().Devices() {
		n += d.Stats().Reconfigs
	}
	return n
}
