// Package server implements `cactus serve`: the paper's top-down
// characterization methodology as a long-running HTTP/JSON service.
// Clients query per-kernel profiles, roofline placements, cross-device
// comparisons, and bottleneck-attribution trees for any workload × device
// combination. The servable set is closed — every catalog workload on every
// configured device — so the server answers from a fixed table of
// compute-once cells, one per combination, built at startup: the first
// asker of a cell starts its study — a one-workload core.NewStudyWith,
// which consults the on-disk profile cache before simulating — under a
// server-wide Workers bound on concurrent studies, and every asker shares
// the result.
//
// Degradation is explicit: a bounded admission queue rejects overload with
// 429, per-request deadlines return 504 (the underlying study keeps
// running and fills its cell for the next asker), and shutdown drains
// in-flight requests and the cell studies they started while rejecting new
// requests with 503. Every request flows into the telemetry registry —
// request counters and a latency histogram — served back out at /metrics
// through the same snapshot path the CLI uses.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value serves the default catalog
// on the stock devices with per-CPU workers and no on-disk cache.
type Options struct {
	// Devices maps device names accepted in the ?device= parameter to
	// their configurations. Nil selects the stock rtx3080 + gtx1080 pair.
	Devices map[string]gpu.DeviceConfig
	// Catalog is the servable workload set. Nil selects core.DefaultCatalog.
	// New reads it once to build the cell table; it must not change while
	// the server runs.
	Catalog *workloads.Catalog
	// Workers caps concurrent cell studies across all requests. Zero
	// selects runtime.NumCPU().
	Workers int
	// Cache, when non-nil, is the on-disk profile cache behind the cells.
	Cache *core.ProfileCache
	// MaxInFlight bounds the admitted work queue: requests beyond this
	// many concurrently in flight are rejected with 429 (default 256).
	MaxInFlight int
	// Timeout is the per-request deadline; a request that exceeds it gets
	// 504 while its study completes in the background (default 60s).
	Timeout time.Duration
	// MaxBatch caps the query count of one POST /api/v1/batch request
	// (default 256).
	MaxBatch int
	// Registry receives the server's counters and histograms. Nil builds a
	// fresh registry; pass one to share a snapshot path with the CLI's
	// -metrics / -pprof surfaces.
	Registry *telemetry.Registry
}

// Server is the characterization service. Construct with New, mount
// Handler on any http.Server, and Shutdown to drain. Safe for concurrent
// use by its nature.
type Server struct {
	opts    Options
	cat     *workloads.Catalog
	devices map[string]gpu.DeviceConfig
	devFPs  map[string]string // device name -> core.Fingerprint
	reg     *telemetry.Registry
	ctr     *telemetry.Counters
	latency *telemetry.Histogram
	cells   map[cellKey]*cell // built in New, never written after
	queue   chan struct{}     // admission tokens; full queue = 429
	workers chan struct{}     // study tokens; a cell study holds one while it runs
	mux     *http.ServeMux

	mu       sync.Mutex
	closed   bool           // guarded by mu
	inflight sync.WaitGroup // Add under mu in enter(); Done/Wait are WaitGroup-synchronized
	studies  sync.WaitGroup // cell studies; Add in cell.get within an admitted request, Wait after inflight drains
}

// New builds a ready server. Callers must Shutdown it when done, so that
// cell studies still running in the background finish first.
func New(opts Options) (*Server, error) {
	if opts.Devices == nil {
		opts.Devices = map[string]gpu.DeviceConfig{
			"rtx3080": gpu.RTX3080(),
			"gtx1080": gpu.GTX1080(),
		}
	}
	if opts.Catalog == nil {
		cat, err := core.DefaultCatalog()
		if err != nil {
			return nil, err
		}
		opts.Catalog = cat
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 256
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	devFPs := make(map[string]string, len(opts.Devices))
	for name, cfg := range opts.Devices {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("server: device %q: %w", name, err)
		}
		devFPs[name] = core.Fingerprint(cfg)
	}
	s := &Server{
		opts:    opts,
		cat:     opts.Catalog,
		devices: opts.Devices,
		devFPs:  devFPs,
		reg:     opts.Registry,
		ctr:     opts.Registry.Counters(),
		latency: opts.Registry.Histogram(telemetry.HistServeRequestSeconds),
		cells:   make(map[cellKey]*cell),
		queue:   make(chan struct{}, opts.MaxInFlight),
		workers: make(chan struct{}, opts.Workers),
	}
	for _, w := range opts.Catalog.All() {
		for name, fp := range devFPs {
			cfg := opts.Devices[name]
			s.cells[cellKey{w.Abbr(), fp}] = &cell{
				studies: &s.studies,
				done:    make(chan struct{}),
				compute: func() (*core.Profile, error) { return s.characterize(cfg, w) },
			}
		}
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// characterize is one cell's study: w on cfg as a one-workload
// core.NewStudyWith over the server's cache and telemetry, holding one of
// the Workers tokens while it runs.
func (s *Server) characterize(cfg gpu.DeviceConfig, w workloads.Workload) (*core.Profile, error) {
	s.workers <- struct{}{}
	defer func() { <-s.workers }()
	st, err := core.NewStudyWith(cfg, core.StudyOptions{
		Workers: 1, Cache: s.opts.Cache, Counters: s.ctr, Metrics: s.reg,
	}, w)
	if err != nil {
		return nil, err
	}
	return st.Profiles[0], nil
}

// Registry returns the server's metrics registry (the /metrics source).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// deviceNames returns the accepted ?device= values, sorted.
func (s *Server) deviceNames() []string {
	names := make([]string, 0, len(s.devices))
	for name := range s.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// enter admits one request unless shutdown has begun.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) exit() { s.inflight.Done() }

// Shutdown stops admitting requests (new ones get 503), waits for
// in-flight requests to drain, then waits for every cell study they
// started — including those whose askers already got 504. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.studies.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cellKey identifies one characterization: a workload abbreviation and
// the full device-configuration fingerprint. Two device names with one
// configuration share a cell; two configurations — or two revisions of one
// device — never alias.
type cellKey struct{ abbr, fingerprint string }

// cell computes one (workload, device) profile at most once. The first
// asker's once counts the study into studies and starts compute on its own
// goroutine; p and err are written before done is closed and read only
// after <-done, so the channel is the happens-before edge. The study is
// detached from every request context: a waiter whose deadline expires
// walks away with 504 while the study still fills the cell for later
// askers, and Server.Shutdown waits for it through studies.
//
// A cell keeps a failed result too. The study runs without a request
// context and New validates every device configuration, so its only errors
// are deterministic simulation errors: recomputing would fail the same
// way.
type cell struct {
	compute func() (*core.Profile, error) // the study; set in New
	studies *sync.WaitGroup               // the server's running cell studies
	once    sync.Once
	done    chan struct{} // closed when p/err are valid
	p       *core.Profile
	err     error
}

// get starts compute on the cell's first call and waits for its result,
// or for ctx — which bounds only this caller's wait, never the study.
func (c *cell) get(ctx context.Context) (*core.Profile, error) {
	c.once.Do(func() {
		// Counted here, synchronously, while the asking request is still
		// admitted: Shutdown's wait on studies cannot begin before it.
		c.studies.Add(1)
		//lint:ignore golife the study is deliberately detached from its spawner: every asker, this one included, joins via <-c.done in get, and a 504'd first asker must not strand the later ones
		go func() {
			defer c.studies.Done()
			c.p, c.err = c.compute()
			close(c.done)
		}()
	})
	select {
	case <-c.done:
		return c.p, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// profileFor resolves one workload's profile on one device through the
// read path the whole API shares: the combination's cell, whose study
// consults the on-disk cache before simulating. The context only gates how
// long this caller waits — a deadline that expires mid-study abandons the
// wait, not the study.
func (s *Server) profileFor(ctx context.Context, w workloads.Workload, devName string) (*core.Profile, error) {
	return s.cells[cellKey{w.Abbr(), s.devFPs[devName]}].get(ctx)
}

// studyFor assembles single-profile studies for the comparison path.
func (s *Server) studyFor(ctx context.Context, ws []workloads.Workload, devName string) (*core.Study, error) {
	st := &core.Study{Device: s.devices[devName]}
	for _, w := range ws {
		p, err := s.profileFor(ctx, w, devName)
		if err != nil {
			return nil, err
		}
		st.Add(p)
	}
	return st, nil
}

// errStatus maps an internal error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is the de-facto convention.
		return 499
	}
	return http.StatusInternalServerError
}
