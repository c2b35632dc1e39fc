package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/server"
)

// serveEnv is an in-process rabidd: the service handler with its default
// configuration on a loopback listener, and an HTTP client keeping one
// connection per closed-loop caller.
type serveEnv struct {
	cfg    config
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
	url    string
	tr     *http.Transport
	client *http.Client
}

func startServer(cfg config) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		cfg:    cfg,
		hs:     &http.Server{Handler: server.New(server.Config{}).Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		tr: &http.Transport{
			MaxIdleConns:        cfg.clients,
			MaxIdleConnsPerHost: cfg.clients,
			MaxConnsPerHost:     cfg.clients,
			DisableCompression:  true,
		},
	}
	e.client = &http.Client{Transport: e.tr}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return e, nil
}

// close shuts the server down and waits until it has stopped serving.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout leaves nothing to do but stop waiting
	<-e.served
	e.tr.CloseIdleConnections()
}

// reply is what a caller keeps of one POST /v1/plan exchange.
type reply struct {
	i          int // request index in the pass
	start, end time.Time
	err        error
	status     int
	cache      string
	etag       string
	size       int
	ok         bool   // the body check passed
	body       []byte // the body, when the pass keeps it
}

// post sends one request body and reads the response into buf.
func (e *serveEnv) post(body []byte, buf *bytes.Buffer) (status int, h http.Header, err error) {
	req, err := http.NewRequest(http.MethodPost, e.url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// drive runs the closed-loop callers over request indices 0, 1, 2, ...
// until the deadline has passed or the n indices are used up. Each caller
// sends its next request only after the previous reply has arrived.
// onBody inspects a response body after its latency has been taken and
// returns the bytes to keep (nil keeps none) and whether the body checked
// out.
func (e *serveEnv) drive(deadline time.Time, n int, bodyOf func(i int) []byte, onBody func(i int, b []byte) ([]byte, bool)) []reply {
	var next atomic.Int64
	per := make([][]reply, e.cfg.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := reply{i: i, start: time.Now()}
				var h http.Header
				r.status, h, r.err = e.post(bodyOf(i), &buf)
				r.end = time.Now()
				if r.err == nil {
					r.cache, r.etag, r.size = h.Get("X-Cache"), h.Get("ETag"), buf.Len()
					r.body, r.ok = onBody(i, buf.Bytes())
				}
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var out []reply
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// metricz reads the server's telemetry registry.
func (e *serveEnv) metricz() (metricsDoc, error) {
	resp, err := e.client.Get(e.url + "/v1/metricz")
	if err != nil {
		return metricsDoc{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metricsDoc{}, fmt.Errorf("metricz: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// request is one prepared POST /v1/plan body.
type request struct {
	circuit []byte      // the circuit JSON: a slice of body
	body    []byte      // the whole request body
	params  core.Params // the parameters the server derives from body
	key     string      // the content key, derived on the client
}

// newRequest builds the body for instance k of circuit ci planned by
// engine ("" = the server's default). Parameters follow exp.ParamsFor, the
// per-circuit calibration of the paper's tables.
func newRequest(cfg config, ci, k int, engine string) (request, error) {
	c, err := genCircuit(cfg, ci, k)
	if err != nil {
		return request{}, err
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return request{}, err
	}
	p := exp.ParamsFor(c.Name)
	p.Backend = engine
	params := map[string]any{"target_stage1_avg": p.TargetStage1Avg}
	if engine != "" {
		params["backend"] = engine
	}
	pj, err := json.Marshal(params)
	if err != nil {
		return request{}, err
	}
	const head = `{"circuit":`
	body := make([]byte, 0, len(head)+len(raw)+len(pj)+12)
	body = append(append(append(append(body, head...), raw...), `,"params":`...), pj...)
	body = append(body, '}')
	return request{circuit: body[len(head) : len(head)+len(raw)], body: body, params: p}, nil
}

// corrupt returns a body the server must refuse with 400: the request with
// its final byte cut off.
func corrupt(body []byte) []byte { return body[:len(body)-1] }

// checkReply counts a failed op unless the reply is a 200 with the
// expected X-Cache value, an ETag equal to the client-derived key, and a
// body that passed its check.
func checkReply(pr *passResult, r reply, wantCache, key string) {
	switch {
	case r.err != nil:
		pr.fail("request %d: %v", r.i, r.err)
	case r.status != http.StatusOK:
		pr.fail("request %d: status %d", r.i, r.status)
	case r.cache != wantCache:
		pr.fail("request %d: X-Cache %q, want %q", r.i, r.cache, wantCache)
	case r.etag != strconv.Quote(key):
		pr.fail("request %d: ETag %s, client key %q", r.i, r.etag, key)
	case !r.ok:
		pr.fail("request %d: body check failed", r.i)
	}
}

// finalStage decodes a response body's last stage report.
func finalStage(body []byte) (core.StageReport, error) {
	var resp planResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return core.StageReport{}, err
	}
	if resp.Report == nil || len(resp.Report.Stages) == 0 {
		return core.StageReport{}, fmt.Errorf("response has no stages")
	}
	s := resp.Report.Stages[len(resp.Report.Stages)-1]
	return s, checkStage(s)
}

// servePass runs one timed pass and collects what every serve workload
// reports: latency samples, process counters, telemetry deltas.
func (e *serveEnv) servePass(tr *tracer, n int, bodyOf func(int) []byte, onBody func(int, []byte) ([]byte, bool)) (*passResult, []reply, error) {
	before, err := e.metricz()
	if err != nil {
		return nil, nil, err
	}
	pr := &passResult{}
	w := openWindow()
	replies := e.drive(w.start.Add(e.cfg.window), n, bodyOf, onBody)
	pr.elapsed, pr.proc = w.close()
	after, err := e.metricz()
	if err != nil {
		return nil, nil, err
	}
	pr.telemetry = after.sub(before)
	pr.ops = len(replies)
	pr.info = map[string]any{}
	for _, r := range replies {
		pr.latency = append(pr.latency, r.end.Sub(r.start))
		tr.add(r.i+1, 0, "server.request", r.start, r.end)
		pr.reqBytes += len(bodyOf(r.i))
		pr.respBytes += r.size
	}
	return pr, replies, nil
}

// serveLayers combines a serve pass's telemetry and the probe's timings
// into the per-layer metrics; misses is how many of the pass's requests
// planned, and the planner's own time comes from the server's "run" spans.
func serveLayers(pr *passResult, lt *layerTimes, misses int) map[string]metric {
	m := pipelineLayers(pr.telemetry, pr.ops)
	lt.addTo(m)
	ops := float64(pr.ops)
	m["req_kb"] = metric{float64(pr.reqBytes) / ops / 1024, "KiB"}
	m["resp_kb"] = metric{float64(pr.respBytes) / ops / 1024, "KiB"}
	var reqMs float64
	for _, d := range pr.latency {
		reqMs += ms(d)
	}
	_, runMs := pr.telemetry.span("run")
	child := lt.edgeMs() + runMs/ops + lt.respondMs()*float64(misses)/ops
	serverLayers(m, pr.telemetry, reqMs/ops, child)
	return m
}

// hitBench sends requests from a working set the server has already
// planned, so every request is a cache hit.
type hitBench struct {
	cfg   config
	env   *serveEnv
	set   []request
	want  [][]byte // each working-set body's response, recorded at warm-up
	order []int    // request i sends set[order[i%len(set)]]
	first []int    // op ID of the first request that sent each body
}

// setupServeHit builds the working set (cfg.hitInstances cycles of the
// request mix, each body a distinct circuit instance), derives each key on
// the client, starts the server and warms its cache with one request per
// body.
func setupServeHit(cfg config) (bench, error) {
	b := &hitBench{cfg: cfg}
	seq := cfg.mixed()
	for k := 0; k < cfg.hitInstances*len(seq); k++ {
		r, err := newRequest(cfg, seq[k%len(seq)], k, "")
		if err != nil {
			return nil, err
		}
		var lt layerTimes
		if _, _, r.key, err = lt.edge(nil, 0, r.circuit, r.params, len(r.body)); err != nil {
			return nil, err
		}
		b.set = append(b.set, r)
	}
	env, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	b.env = env
	b.want = make([][]byte, len(b.set))
	warm := env.drive(time.Now().Add(24*time.Hour), len(b.set),
		func(i int) []byte { return b.set[i].body },
		func(i int, body []byte) ([]byte, bool) { return bytes.Clone(body), true })
	var pr passResult
	for _, r := range warm {
		checkReply(&pr, r, "miss", b.set[r.i].key)
		b.want[r.i] = r.body
	}
	if pr.failed > 0 || len(warm) != len(b.set) {
		env.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", pr.failed, len(b.set), pr.failures)
	}
	b.order = rand.New(rand.NewSource(cfg.seed)).Perm(len(b.set))
	return b, nil
}

func (b *hitBench) close() { b.env.close() }

func (b *hitBench) bodyOf(i int) []byte {
	body := b.set[b.order[i%len(b.set)]].body
	if i == b.cfg.badRequest {
		return corrupt(body)
	}
	return body
}

func (b *hitBench) pass(tr *tracer) (*passResult, error) {
	L := len(b.set)
	pr, replies, err := b.env.servePass(tr, math.MaxInt, b.bodyOf,
		func(i int, body []byte) ([]byte, bool) { return nil, bytes.Equal(body, b.want[b.order[i%L]]) })
	if err != nil {
		return nil, err
	}
	b.first = make([]int, L)
	for _, r := range replies {
		j := b.order[r.i%L]
		checkReply(pr, r, "hit", b.set[j].key)
		if b.first[j] == 0 || r.i+1 < b.first[j] {
			b.first[j] = r.i + 1
		}
	}
	// Quality: the plans of the working set, each once.
	for i, body := range b.want {
		s, err := finalStage(body)
		if err != nil {
			return nil, fmt.Errorf("working-set body %d: %w", i, err)
		}
		pr.quality.add(s)
	}
	pr.info["working_set"] = L
	return pr, nil
}

// probe times decode, normalize and key on every working-set body, and
// report and encode on a plan of each (planned here, outside the window).
// A body's spans carry the op ID of the first request that sent it.
func (b *hitBench) probe(tr *tracer, pr *passResult) (map[string]metric, error) {
	var lt layerTimes
	for j, r := range b.set {
		op := b.first[j]
		c, p, key, err := lt.edge(tr, op, r.circuit, r.params, len(r.body))
		if err != nil {
			return nil, err
		}
		res, err := backend.Plan(context.Background(), c, p)
		if err != nil {
			return nil, err
		}
		if _, err := lt.respond(tr, op, res, key); err != nil {
			return nil, err
		}
	}
	return serveLayers(pr, &lt, 0), nil
}

// missEngines rotate by request index on serve-miss.
var missEngines = []string{backend.NameRabid, backend.NameRabidLib, backend.NameMCF}

// missBench sends a distinct circuit with every request, so every request
// misses, plans, encodes and stores, and the cache evicts once the pass
// outgrows it.
type missBench struct {
	cfg  config
	env  *serveEnv
	pool []request
}

// setupServeMiss generates the request pool: request i plans its own
// instance of the circuit in slot (i/3) of the request mix with engine
// i%3, so every circuit of the mix meets every engine once per cycle.
func setupServeMiss(cfg config) (bench, error) {
	n := max(int(cfg.window.Seconds()*float64(cfg.missPerSecond)), cfg.qualityPrefix)
	b := &missBench{cfg: cfg, pool: make([]request, n)}
	seq := cfg.mixed()
	ne := len(missEngines)
	for i := range b.pool {
		r, err := newRequest(cfg, seq[(i/ne)%len(seq)], i, missEngines[i%ne])
		if err != nil {
			return nil, err
		}
		b.pool[i] = r
	}
	env, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	b.env = env
	return b, nil
}

func (b *missBench) close() { b.env.close() }

func (b *missBench) bodyOf(i int) []byte {
	if i == b.cfg.badRequest {
		return corrupt(b.pool[i].body)
	}
	return b.pool[i].body
}

func (b *missBench) pass(tr *tracer) (*passResult, error) {
	pr, replies, err := b.env.servePass(tr, len(b.pool), b.bodyOf,
		func(i int, body []byte) ([]byte, bool) {
			if i < b.cfg.qualityPrefix {
				return bytes.Clone(body), true
			}
			return nil, true
		})
	if err != nil {
		return nil, err
	}
	if len(replies) == len(b.pool) {
		pr.info["pool_exhausted"] = true
	}
	// Verification, outside the window: every ETag against the key the
	// client derives from the body it sent.
	var lt layerTimes
	prefix := make([][]byte, b.cfg.qualityPrefix)
	for _, r := range replies {
		req := b.pool[r.i]
		_, _, key, err := lt.edge(tr, r.i+1, req.circuit, req.params, len(req.body))
		if err != nil {
			return nil, fmt.Errorf("request %d: client key: %w", r.i, err)
		}
		before := pr.failed
		checkReply(pr, r, "miss", key)
		if r.i < len(prefix) && pr.failed == before {
			prefix[r.i] = r.body
		}
	}
	pr.edge = &lt
	// Quality over the fixed request prefix, which every valid pass
	// completes; a sample of it is planned again on the service's own code
	// path and must reproduce the served bytes.
	for i, body := range prefix {
		if body == nil {
			if i >= len(replies) {
				return nil, fmt.Errorf("%w: pass completed %d requests, quality needs the first %d", errInvalidPass, len(replies), len(prefix))
			}
			continue // counted as failed above
		}
		s, err := finalStage(body)
		if err != nil {
			pr.fail("request %d: %v", i, err)
			continue
		}
		pr.quality.add(s)
		if i%b.cfg.replanStride == 0 {
			_, again, err := server.ExecutePlan(context.Background(), b.pool[i].body, 0, nil)
			if err != nil || !bytes.Equal(again, body) {
				pr.fail("request %d: re-planned body differs from the served one (err %v)", i, err)
			}
		}
	}
	return pr, nil
}

// probe times report and encode on plans of the first probeMissPlans
// prefix requests (re-planned here, outside the window); decode, normalize
// and key were timed on every request of the pass during verification.
func (b *missBench) probe(tr *tracer, pr *passResult) (map[string]metric, error) {
	lt := pr.edge
	for i := 0; i < min(b.cfg.probeMissPlans, len(b.pool)); i++ {
		var scratch layerTimes
		c, p, key, err := scratch.edge(nil, 0, b.pool[i].circuit, b.pool[i].params, 0)
		if err != nil {
			return nil, err
		}
		res, err := backend.Plan(context.Background(), c, p)
		if err != nil {
			return nil, err
		}
		if _, err := lt.respond(tr, i+1, res, key); err != nil {
			return nil, err
		}
	}
	return serveLayers(pr, lt, pr.ops), nil
}
