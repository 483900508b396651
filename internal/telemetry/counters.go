package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter names used across the pipeline. Keeping them in one place makes
// the -v snapshot and the expvar export self-describing.
const (
	// CtrLaunches counts kernel launches modeled by gpu.Device.Launch.
	CtrLaunches = "gpu.launches"
	// CtrWarpInstructions totals executed warp instructions across launches.
	CtrWarpInstructions = "gpu.warp_instructions"
	// CtrCacheHits counts profile-cache probes served from disk.
	CtrCacheHits = "cache.hits"
	// CtrCacheMisses counts probes that had to re-simulate (absent or
	// corrupt entries both count; corrupt ones additionally bump
	// CtrCacheCorrupt).
	CtrCacheMisses = "cache.misses"
	// CtrCacheCorrupt counts cache entries that existed but were unreadable
	// or mismatched — previously dropped silently, now visible.
	CtrCacheCorrupt = "cache.corrupt_entries"
	// CtrCacheStoreErrors counts failed cache writes. A store failure does
	// not fail the study; it is counted and reported instead.
	CtrCacheStoreErrors = "cache.store_errors"
	// CtrWorkersBusy is the number of pool workers currently characterizing
	// a workload (a gauge: incremented on task start, decremented on end).
	CtrWorkersBusy = "study.workers_busy"
	// CtrWorkloads counts workloads characterized (cache hits included).
	CtrWorkloads = "study.workloads_characterized"

	// Serve-layer counters: the characterization server's request outcomes.
	// Characterizations are counted by CtrWorkloads, once per workload ×
	// device configuration however many requests asked.

	// CtrServeRequests counts HTTP requests accepted by the API handlers
	// (rejected ones are counted under their rejection counter instead).
	CtrServeRequests = "serve.requests"
	// CtrServeRejectedQueue counts requests rejected with 429 because the
	// bounded work queue was full.
	CtrServeRejectedQueue = "serve.rejected_queue_full"
	// CtrServeRejectedShutdown counts requests rejected with 503 during
	// shutdown drain.
	CtrServeRejectedShutdown = "serve.rejected_shutdown"
	// CtrServeDeadlineExceeded counts requests that hit their per-request
	// deadline (504); the underlying study keeps running and fills its
	// cell for the next asker.
	CtrServeDeadlineExceeded = "serve.deadline_exceeded"
	// CtrServeWriteErrors counts response bodies that failed to reach the
	// client (connection reset mid-write, client hang-up). The response
	// cannot be retried — the client is gone — but a spike here is an
	// operational symptom worth alerting on, so it is counted, not dropped.
	CtrServeWriteErrors = "serve.write_errors"
)

// WorkloadModeledNs returns the counter name holding a workload's modeled
// GPU time in nanoseconds.
func WorkloadModeledNs(abbr string) string { return "workload." + abbr + ".modeled_ns" }

// WorkloadWallNs returns the counter name holding the host wall time spent
// characterizing (or cache-loading) a workload, in nanoseconds.
func WorkloadWallNs(abbr string) string { return "workload." + abbr + ".wall_ns" }

// Counters is a concurrency-safe registry of named int64 counters. The zero
// of a name springs into existence on first Add. A nil *Counters is a valid
// no-op receiver, so instrumented code never needs nil checks.
type Counters struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64 // guarded by mu; the values are atomic
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{m: make(map[string]*atomic.Int64)} }

// Add increments (or with a negative delta, decrements) the named counter.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.RLock()
	v, ok := c.m[name]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		if v, ok = c.m[name]; !ok {
			v = new(atomic.Int64)
			c.m[name] = v
		}
		c.mu.Unlock()
	}
	v.Add(delta)
}

// Get returns the named counter's value (0 if never touched).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.m[name]; ok {
		return v.Load()
	}
	return 0
}

// CounterValue is one snapshotted counter.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot returns all counters sorted by name — a deterministic report for
// a deterministic run.
func (c *Counters) Snapshot() []CounterValue {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]CounterValue, 0, len(c.m))
	for name, v := range c.m {
		out = append(out, CounterValue{Name: name, Value: v.Load()})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText writes the snapshot as aligned "name value" lines.
func (c *Counters) WriteText(w io.Writer) error {
	snap := c.Snapshot()
	width := 0
	for _, cv := range snap {
		if len(cv.Name) > width {
			width = len(cv.Name)
		}
	}
	bw := bufio.NewWriter(w)
	for _, cv := range snap {
		if _, err := fmt.Fprintf(bw, "%-*s %d\n", width, cv.Name, cv.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSON writes the snapshot as one sorted JSON object (encoding/json
// marshals map keys in sorted order, so output is deterministic).
func (c *Counters) WriteJSON(w io.Writer) error {
	m := make(map[string]int64, len(c.Snapshot()))
	for _, cv := range c.Snapshot() {
		m[cv.Name] = cv.Value
	}
	data, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// PublishExpvar exposes the registry under the given expvar name (served at
// /debug/vars by any net/http server on the default mux, e.g. the CLI's
// -pprof listener). Publishing the same name twice is a no-op rather than
// the panic expvar.Publish would raise. The published value is a
// MetricsSnapshot rendered through the same snapshot path as every other
// output format (text, JSON, Prometheus) — a counters-only registry view,
// so expvar cannot drift from the other emitters.
func (c *Counters) PublishExpvar(name string) {
	if c == nil {
		return
	}
	NewRegistryWith(c).PublishExpvar(name)
}
