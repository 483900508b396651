package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// rtx3080 is catalog_warm's device, the CLI's default.
var rtx3080 = namedDevice{"rtx3080", gpu.RTX3080()}

// figure9Clusters is the CLI's default cluster count for Figure 9.
const figure9Clusters = 6

// renderTimes splits one rendering of every figure and table by layer.
type renderTimes struct {
	fig8, fig9 time.Duration // stats: correlation, FAMD + clustering
	report     time.Duration // every other figure and table
}

// renderAll renders what `cactus all` prints, in its order, timing each
// renderer call.
func renderAll(st *core.Study, w io.Writer) (renderTimes, error) {
	var rt renderTimes
	steps := []struct {
		name string
		slot *time.Duration
		fn   func() error
	}{
		{"figure1", &rt.report, func() error { return core.Figure1(w) }},
		{"figure2", &rt.report, func() error { return core.Figure2(st, w) }},
		{"table1", &rt.report, func() error { return core.Table1(st, w) }},
		{"figure3", &rt.report, func() error { return core.Figure3(st, w) }},
		{"figure4", &rt.report, func() error { return core.Figure4(st, w) }},
		{"figure5", &rt.report, func() error { return core.Figure5(st, w) }},
		{"figure6", &rt.report, func() error { return core.Figure6(st, w) }},
		{"figure7", &rt.report, func() error { return core.Figure7(st, w) }},
		{"figure8", &rt.fig8, func() error { return core.Figure8(st, w) }},
		{"figure9", &rt.fig9, func() error { return core.Figure9(st, w, figure9Clusters) }},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.fn(); err != nil {
			return rt, fmt.Errorf("rendering %s: %w", s.name, err)
		}
		*s.slot += time.Since(start)
	}
	return rt, nil
}

// pass is one `cactus all`: a study over the catalog plus every figure.
type pass struct {
	st     *core.Study
	out    []byte
	study  time.Duration // core.NewStudyWith alone
	wall   time.Duration // study plus rendering
	render renderTimes
}

func runPass(dev gpu.DeviceConfig, opts core.StudyOptions, ws []workloads.Workload) (pass, error) {
	start := time.Now()
	st, err := core.NewStudyWith(dev, opts, ws...)
	if err != nil {
		return pass{}, err
	}
	p := pass{st: st, study: time.Since(start)}
	var buf bytes.Buffer
	if p.render, err = renderAll(st, &buf); err != nil {
		return pass{}, err
	}
	p.wall = time.Since(start)
	p.out = buf.Bytes()
	return p, nil
}

// checker holds a run's reference outputs: the first rendering and each
// workload's profile table.
type checker struct {
	out    []byte
	tables map[string][]byte
}

// newChecker takes p as the reference.
func newChecker(p pass) (*checker, error) {
	c := &checker{out: p.out, tables: make(map[string][]byte, len(p.st.Profiles))}
	for _, prof := range p.st.Profiles {
		var buf bytes.Buffer
		if err := core.WriteProfileTable(&buf, prof); err != nil {
			return nil, err
		}
		c.tables[prof.Abbr()] = buf.Bytes()
	}
	return c, nil
}

// badProfiles counts the workloads of st whose profile table differs from
// the reference or whose attribution tree breaks the sum-to-1 identity.
func (c *checker) badProfiles(st *core.Study) int64 {
	var bad int64
	for _, p := range st.Profiles {
		var buf bytes.Buffer
		ok := core.WriteProfileTable(&buf, p) == nil && bytes.Equal(buf.Bytes(), c.tables[p.Abbr()])
		if !ok || len(telemetry.CheckAttribution(core.AttributeProfile(p, st.Device), 0)) > 0 {
			bad++
		}
	}
	return bad
}

// passOK reports whether a whole pass reproduced the reference rendering
// and its study-level attribution tree holds the identity.
func (c *checker) passOK(p pass) bool {
	return bytes.Equal(p.out, c.out) && len(telemetry.CheckAttribution(core.Attribute(p.st), 0)) == 0
}

// fingerprint is the simulated-statistics fingerprint: exact counts that a
// change meant only to speed the simulator up must leave unchanged.
type fingerprint struct {
	Launches    int64   `json:"gpu.launches"`
	WarpInsts   uint64  `json:"gpu.warp_insts"`
	ModeledS    float64 `json:"gpu.modeled_s"`
	DRAMTxns    uint64  `json:"memsim.dram_txns,omitempty"` // traced runs only
	OutputBytes int     `json:"report.output_bytes"`
}

// addProfiles accumulates the launch, instruction and modeled-time totals
// of profiles; a profile's launches are its kernels' invocations.
func (f *fingerprint) addProfiles(profiles []*core.Profile) {
	for _, p := range profiles {
		for _, k := range p.Kernels {
			f.Launches += int64(k.Invocations)
		}
		f.WarpInsts += uint64(p.TotalWarpInsts)
		f.ModeledS += p.TotalTime.Float()
	}
}

func passFingerprint(p pass) fingerprint {
	f := fingerprint{OutputBytes: len(p.out)}
	f.addProfiles(p.st.Profiles)
	return f
}

// primeCache is catalog_warm's set-up: a cold study that fills a fresh
// profile cache.
func primeCache(cfg config, dev gpu.DeviceConfig, ws []workloads.Workload, name string) (*core.ProfileCache, *core.Study, time.Duration, error) {
	cache, err := core.OpenCache(filepath.Join(cfg.dir, name))
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	st, err := core.NewStudyWith(dev, core.StudyOptions{Workers: cfg.workers, Cache: cache}, ws...)
	return cache, st, time.Since(start), err
}

// warmPrimes is how many times catalog_warm primes a cache in one run; the
// median is its set-up time.
const warmPrimes = 3

// catalogWarm is repeated `cactus all` against a profile cache primed in
// set-up: a study that loads every profile from disk, plus every figure
// and table. Its operations are warm passes, timed in contiguous windows
// after the last prime.
func catalogWarm(cfg config) (outcome, error) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		return outcome{}, err
	}
	ws := cat.All()
	if cfg.trace {
		return warmTraced(cfg, ws, rtx3080)
	}
	dev := rtx3080.cfg
	var (
		out    outcome
		chk    *checker
		cache  *core.ProfileCache
		setups []float64
	)
	for i := 0; i < warmPrimes; i++ {
		runtime.GC() // each prime starts from a collected heap
		c, primed, d, err := primeCache(cfg, dev, ws, fmt.Sprintf("prime%d", i))
		if err != nil {
			return outcome{}, err
		}
		cache = c
		setups = append(setups, d.Seconds())
		// Every warm pass must render what the first prime's cold study
		// renders.
		if chk == nil {
			if chk, err = primedChecker(primed); err != nil {
				return outcome{}, err
			}
		}
	}
	opts := core.StudyOptions{Workers: cfg.workers, Cache: cache}
	var (
		wins []window
		last pass
	)
	runtime.GC()
	for k := 0; k < segments; k++ {
		var w window
		deadline := time.Now().Add(cfg.seconds / segments)
		for w.ops == 0 || time.Now().Before(deadline) {
			p, err := runPass(dev, opts, ws)
			if err != nil {
				return outcome{}, err
			}
			w.add(p.wall, 1)
			out.attempted++
			if !chk.passOK(p) || chk.badProfiles(p.st) > 0 {
				out.failed++
			}
			last = p
		}
		wins = append(wins, w)
	}
	out.fp = passFingerprint(last)
	out.metrics = e2eMetrics(median(setups), wins)
	logTail(cfg, wins)
	return out, nil
}

// primedChecker renders the cold study that primed the cache: every warm
// pass must reproduce it byte for byte.
func primedChecker(primed *core.Study) (*checker, error) {
	var buf bytes.Buffer
	if _, err := renderAll(primed, &buf); err != nil {
		return nil, err
	}
	return newChecker(pass{st: primed, out: buf.Bytes()})
}
