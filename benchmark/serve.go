package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// serveDevices are the server's stock devices.
var serveDevices = []namedDevice{rtx3080, {"gtx1080", gpu.GTX1080()}}

// serveFills is how many cold fills serve_closed makes in one run; the
// median is its set-up time.
const serveFills = 3

// seqHeader tags the requests whose handler time a traced run records.
const seqHeader = "X-Bench-Seq"

// request is one API query.
type request struct {
	method, target string // target is the path with its query string
	body           []byte
	// textProfile, when set, is the job whose text profile this query
	// returns; its reply must equal core.WriteProfileTable.
	textProfile *job
}

func get(path string, v url.Values) request {
	return request{method: http.MethodGet, target: path + "?" + v.Encode()}
}

func workloadQuery(j job, format string) url.Values {
	v := url.Values{"workload": {j.w.Abbr()}, "device": {j.dev.name}}
	if format != "" {
		v.Set("format", format)
	}
	return v
}

// fillRequests are the cold fill: every workload × device key answers
// profile, roofline and explain, and every workload answers compare.
// Profiles go first, so the two phases never wait on each other's
// characterizations.
func fillRequests(ws []workloads.Workload) (profiles, rest []request) {
	for _, j := range jobsFor(ws, serveDevices...) {
		profiles = append(profiles, get("/api/v1/profile", workloadQuery(j, "")))
		rest = append(rest,
			get("/api/v1/roofline", workloadQuery(j, "")),
			get("/api/v1/explain", workloadQuery(j, "")))
	}
	for _, w := range ws {
		rest = append(rest, get("/api/v1/compare", url.Values{"workload": {w.Abbr()}}))
	}
	return profiles, rest
}

// queryPool is serve_closed's query pool, grouped by query shape. A client
// draws a shape uniformly, then a query of that shape uniformly: the
// repository holds no record of real API traffic, so no shape is weighted
// above another.
type queryPool struct {
	reqs   []request
	shapes [][]int // indices into reqs, one slice per shape
}

// shape adds one query shape with its queries.
func (p *queryPool) shape(reqs ...request) {
	idx := make([]int, len(reqs))
	for k := range reqs {
		idx[k] = len(p.reqs) + k
	}
	p.reqs = append(p.reqs, reqs...)
	p.shapes = append(p.shapes, idx)
}

// draw picks the index of a query.
func (p *queryPool) draw(rng *rand.Rand) int {
	s := p.shapes[rng.Intn(len(p.shapes))]
	return s[rng.Intn(len(s))]
}

// newQueryPool lists every distinct query of each shape the API serves:
// per workload × device key a JSON profile, a text profile, a roofline, a
// JSON and a text explanation, and a batch of its profile, roofline and
// explanation; per workload a comparison of the two devices; and the
// catalog listing.
func newQueryPool(ws []workloads.Workload) queryPool {
	jobs := jobsFor(ws, serveDevices...)
	perKey := func(f func(j job) request) []request {
		out := make([]request, len(jobs))
		for k, j := range jobs {
			out[k] = f(j)
		}
		return out
	}
	var p queryPool
	p.shape(perKey(func(j job) request { return get("/api/v1/profile", workloadQuery(j, "")) })...)
	p.shape(perKey(func(j job) request {
		r := get("/api/v1/profile", workloadQuery(j, "text"))
		r.textProfile = &j
		return r
	})...)
	p.shape(perKey(func(j job) request { return get("/api/v1/roofline", workloadQuery(j, "")) })...)
	p.shape(perKey(func(j job) request { return get("/api/v1/explain", workloadQuery(j, "")) })...)
	p.shape(perKey(func(j job) request { return get("/api/v1/explain", workloadQuery(j, "text")) })...)
	p.shape(perKey(func(j job) request {
		type query struct {
			Kind     string `json:"kind"`
			Workload string `json:"workload"`
			Device   string `json:"device"`
		}
		var qs []query
		for _, kind := range []string{"profile", "roofline", "explain"} {
			qs = append(qs, query{Kind: kind, Workload: j.w.Abbr(), Device: j.dev.name})
		}
		body, err := json.Marshal(map[string]any{"queries": qs})
		if err != nil {
			panic(err) // plain data always marshals
		}
		return request{method: http.MethodPost, target: "/api/v1/batch", body: body}
	})...)
	var compares []request
	for _, w := range ws {
		compares = append(compares, get("/api/v1/compare", url.Values{"workload": {w.Abbr()}}))
	}
	p.shape(compares...)
	p.shape(get("/api/v1/workloads", url.Values{}))
	return p
}

// rig is one in-process server on a loopback listener with its client.
type rig struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	cache  *core.ProfileCache
	reg    *telemetry.Registry

	mu      sync.Mutex
	handler map[string]time.Duration // guarded by mu; by seqHeader value
}

// startRig builds a server over an empty on-disk profile cache — the cold
// state — and serves it on loopback. With timeHandler, requests carrying
// seqHeader have their handler time recorded.
func startRig(cfg config, name string, timeHandler bool) (*rig, error) {
	cache, err := core.OpenCache(filepath.Join(cfg.dir, name))
	if err != nil {
		return nil, err
	}
	r := &rig{cache: cache, reg: telemetry.NewRegistry(), served: make(chan error, 1), handler: map[string]time.Duration{}}
	r.srv, err = server.New(server.Options{Workers: cfg.workers, Cache: cache, Registry: r.reg})
	if err != nil {
		return nil, err
	}
	h := r.srv.Handler()
	if timeHandler {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			seq := req.Header.Get(seqHeader)
			if seq == "" {
				inner.ServeHTTP(w, req)
				return
			}
			start := time.Now()
			inner.ServeHTTP(w, req)
			d := time.Since(start)
			r.mu.Lock()
			r.handler[seq] = d
			r.mu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, r.srv.Shutdown(context.Background()))
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: h}
	go func() { r.served <- r.hs.Serve(ln) }()
	// At most one connection per worker: the load is `workers` closed-loop
	// clients, and the transport must not open more sockets than that.
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.workers,
		MaxIdleConnsPerHost: cfg.workers,
		DisableCompression:  true,
	}}
	return r, nil
}

// close stops the listener, drains the server and waits for Serve to
// return.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r.client.CloseIdleConnections()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, r.srv.Shutdown(ctx))
}

// do sends one request and reads the whole reply. seq tags the request for
// handler timing when non-empty.
func (r *rig) do(req request, seq string) (int, []byte, time.Duration, error) {
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequest(req.method, r.base+req.target, body)
	if err != nil {
		return 0, nil, 0, err
	}
	if seq != "" {
		hreq.Header.Set(seqHeader, seq)
	}
	start := time.Now()
	resp, err := r.client.Do(hreq)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, lat, err
}

// sendAll sends reqs from `workers` clients and returns each reply body;
// a transport error or a status other than 200 leaves the body nil.
func (r *rig) sendAll(reqs []request, workers int) [][]byte {
	out := make([][]byte, len(reqs))
	_ = forEach(len(reqs), workers, func(i, _ int) error { // never fails
		if status, body, _, err := r.do(reqs[i], ""); err == nil && status == http.StatusOK {
			out[i] = body
		}
		return nil
	})
	return out
}

// coldFill is serve_closed's set-up: server.New until every fill request
// has answered. It returns the running rig, the set-up time and the failed
// fill requests.
func coldFill(cfg config, name string, ws []workloads.Workload, timeHandler bool) (*rig, time.Duration, int64, []byte, error) {
	start := time.Now()
	r, err := startRig(cfg, name, timeHandler)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	profiles, rest := fillRequests(ws)
	replies := append(r.sendAll(profiles, cfg.workers), r.sendAll(rest, cfg.workers)...)
	setup := time.Since(start)
	var failed int64
	var all []byte
	for _, b := range replies {
		if b == nil {
			failed++
		}
		all = append(all, b...)
	}
	// Exactly once per key: the singleflight and LRU in front of the engine
	// must turn every fill request after the first per key into a hit.
	if got := r.reg.Counters().Get(telemetry.CtrWorkloads); got != int64(len(profiles)) {
		fmt.Fprintf(cfg.log, "cactusbench: %d characterizations for %d keys\n", got, len(profiles))
		failed++
	}
	return r, setup, failed, all, nil
}

// references answers every pool query once. On the run's first server the
// replies become the references every later reply to the same query must
// equal; on later servers each must already equal them. A text profile
// must also equal core.WriteProfileTable of the profile the server cached.
func (r *rig) references(mix []request, refs [][]byte, workers int) ([][]byte, int64) {
	replies := r.sendAll(mix, workers)
	if refs == nil {
		refs = replies
	}
	var failed int64
	for i, req := range mix {
		if replies[i] == nil || !bytes.Equal(replies[i], refs[i]) {
			failed++
			continue
		}
		if j := req.textProfile; j != nil {
			p, ok := r.cache.Load(j.w, j.dev.cfg)
			var buf bytes.Buffer
			if !ok || core.WriteProfileTable(&buf, p) != nil || !bytes.Equal(buf.Bytes(), replies[i]) {
				failed++
			}
		}
	}
	return refs, failed
}

// sample is one timed request.
type sample struct {
	lat    time.Duration
	seq    string // set when the handler time was recorded
	failed bool
}

// closedLoop runs `workers` clients for d, each sending its next query from
// the pool only after the previous reply. Client c of segment seg draws
// queries from its own seeded stream. With tag, every request carries
// seqHeader.
func (r *rig) closedLoop(cfg config, pool *queryPool, refs [][]byte, tag bool, seg int, d time.Duration) ([]sample, time.Duration) {
	per := make([][]sample, cfg.workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1000003 + int64(seg*cfg.workers+c)))
			for n := 0; time.Now().Before(deadline); n++ {
				i := pool.draw(rng)
				seq := ""
				if tag {
					seq = fmt.Sprintf("%d-%d-%d", seg, c, n)
				}
				status, body, lat, err := r.do(pool.reqs[i], seq)
				failed := err != nil || status != http.StatusOK || !bytes.Equal(body, refs[i])
				per[c] = append(per[c], sample{lat: lat, seq: seq, failed: failed})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// serveClosed is an in-process server under closed-loop load: set-up is a
// cold fill of every key, then `workers` clients send seeded draws from the
// query pool in timed windows. Each fill builds a fresh server; the windows
// are spread over them. Its operations are requests.
func serveClosed(cfg config) (outcome, error) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		return outcome{}, err
	}
	ws := cat.All()
	if cfg.trace {
		return serveTraced(cfg, ws)
	}
	pool := newQueryPool(ws)
	var (
		out    outcome
		setups []float64
		refs   [][]byte
		wins   []window
	)
	for i := 0; i < serveFills; i++ {
		runtime.GC() // each fill starts from a collected heap
		r, d, failed, fill, err := coldFill(cfg, fmt.Sprintf("fill%d", i), ws, false)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d.Seconds())
		out.failed += failed
		refs, failed = r.references(pool.reqs, refs, cfg.workers)
		out.failed += failed
		runtime.GC()
		w, samples, failed := r.runWindows(cfg, &pool, refs, false, len(wins), windowsAfter(i, serveFills))
		wins = append(wins, w...)
		out.attempted += int64(len(samples))
		out.failed += failed
		if i == serveFills-1 {
			out.fp, err = serveFingerprint(r, ws, fill)
		}
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return outcome{}, err
		}
	}
	out.metrics = e2eMetrics(median(setups), wins)
	logTail(cfg, wins)
	return out, nil
}

// runWindows runs n timed windows of the closed loop, numbered from first,
// and counts their failed requests. Clients reconnect before each window,
// so no one connection's scheduling luck spans the whole phase.
func (r *rig) runWindows(cfg config, pool *queryPool, refs [][]byte, tag bool, first, n int) ([]window, []sample, int64) {
	var (
		wins   []window
		all    []sample
		failed int64
	)
	for seg := first; seg < first+n; seg++ {
		r.client.CloseIdleConnections()
		samples, elapsed := r.closedLoop(cfg, pool, refs, tag, seg, cfg.seconds/segments)
		w := window{ops: len(samples), elapsed: elapsed}
		for _, s := range samples {
			w.lat = append(w.lat, float64(s.lat.Nanoseconds())/1e6)
			if s.failed {
				failed++
			}
		}
		wins = append(wins, w)
		all = append(all, samples...)
	}
	return wins, all, failed
}

// serveFingerprint sums the profiles the fill cached for every key; its
// output bytes are the fill replies'.
func serveFingerprint(r *rig, ws []workloads.Workload, fill []byte) (fingerprint, error) {
	f := fingerprint{OutputBytes: len(fill)}
	for _, j := range jobsFor(ws, serveDevices...) {
		p, ok := r.cache.Load(j.w, j.dev.cfg)
		if !ok {
			return f, fmt.Errorf("no cached profile for %s after the fill", j.key())
		}
		f.addProfiles([]*core.Profile{p})
	}
	return f, nil
}

// serveTraced is serve_closed's traced run: one cold fill and a timed phase
// in which every request has its handler time recorded, then an attribution
// pass over the characterizations the fill performed — every workload on
// both devices — for the compute layers the server hides, and real passes
// over both devices for the engine's schedule and the cost of tracing.
func serveTraced(cfg config, ws []workloads.Workload) (outcome, error) {
	r, _, failed, fill, err := coldFill(cfg, "fill", ws, true)
	if err != nil {
		return outcome{}, err
	}
	pool := newQueryPool(ws)
	refs, rfailed := r.references(pool.reqs, nil, cfg.workers)
	runtime.GC()
	_, samples, wfailed := r.runWindows(cfg, &pool, refs, true, 0, segments)
	if err := r.close(); err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: int64(len(samples)), failed: failed + rfailed + wfailed}
	var handler, overhead []float64
	for _, s := range samples {
		r.mu.Lock()
		h, ok := r.handler[s.seq]
		r.mu.Unlock()
		if ok {
			handler = append(handler, float64(h.Nanoseconds())/1e3)
			overhead = append(overhead, float64((s.lat-h).Nanoseconds())/1e3)
		}
	}
	ctr := r.reg.Counters()

	jobs := jobsFor(ws, serveDevices...)
	audits, err := auditJobs(jobs, cfg.workers)
	if err != nil {
		return outcome{}, err
	}
	tr, err := tracedStudy(jobs, cfg.workers, nil)
	if err != nil {
		return outcome{}, err
	}
	t := account(tr, audits)
	out.failed += t.badTasks
	v, ok := t.values(cfg.log)
	if !ok {
		out.failed++
	}
	// The server must have served what a direct characterization produces.
	for i, j := range jobs {
		p, ok := r.cache.Load(j.w, j.dev.cfg)
		if !ok || !sameTable(p, tr.tasks[i].profile) {
			out.failed++
		}
	}
	plain, traced, bad, err := engineRun(ws, serveDevices, cfg.workers, tr)
	if err != nil {
		return outcome{}, err
	}
	out.failed += bad
	for k, x := range engineValues(plain, traced) {
		v[k] = x
	}
	v["core.cache_hits"] = float64(ctr.Get(telemetry.CtrCacheHits))
	v["core.cache_misses"] = float64(ctr.Get(telemetry.CtrCacheMisses))
	v["report.output_bytes"] = float64(len(fill))
	v["server.handler_p50_us"] = median(handler)
	v["server.handler_p99_us"] = quantile(handler, 0.99)
	v["http.overhead_p50_us"] = median(overhead)
	v["server.characterizations"] = float64(ctr.Get(telemetry.CtrWorkloads))
	out.fp = fingerprint{OutputBytes: len(fill), DRAMTxns: t.dramTxns}
	for _, d := range serveDevices {
		out.fp.addProfiles(tr.study(d).Profiles)
	}
	if out.metrics, err = layerMetrics(v); err != nil {
		return outcome{}, err
	}
	return out, writeChrome(cfg.traceFile, tr)
}
