package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// perLayer lists every per-layer metric in the order README.md documents
// them. A traced run reports all of them; a layer the workload never
// reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"mlapps.self_s", "s"},
	{"md.self_s", "s"},
	{"graphx.self_s", "s"},
	{"suites.self_s", "s"},
	{"engine.critical_task_s", "s"},
	{"engine.busy_frac", "fraction"},
	{"engine.idle_lane_s", "s"},
	{"gpu.launch_self_s", "s"},
	{"gpu.launch_us", "us"},
	{"gpu.launches", "count"},
	{"gpu.warp_insts", "count"},
	{"gpu.modeled_s", "sim_s"},
	{"memsim.replay_launch_s", "s"},
	{"memsim.dram_txns", "count"},
	{"core.cache_load_ms", "ms"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"stats.figure8_ms", "ms"},
	{"stats.figure9_ms", "ms"},
	{"report.figures_ms", "ms"},
	{"report.output_bytes", "bytes"},
	{"server.handler_p50_us", "us"},
	{"server.handler_p99_us", "us"},
	{"http.overhead_p50_us", "us"},
	{"server.characterizations", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
}

// layerMetrics turns measured values into the full per-layer metric set.
func layerMetrics(values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{values[m.name], m.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("unknown per-layer metric %q", name)
		}
	}
	return out, nil
}

// moduleOf names the module that implements a workload's functional
// compute: the three Cactus domains, or the baseline suites.
func moduleOf(w workloads.Workload) string {
	if w.Suite() != workloads.Cactus {
		return "suites"
	}
	switch w.Domain() {
	case workloads.Molecular:
		return "md"
	case workloads.Graph:
		return "graphx"
	}
	return "mlapps"
}

// job is one characterization: a workload on a device.
type job struct {
	w   workloads.Workload
	dev namedDevice
}

func (j job) key() string { return j.w.Abbr() + "@" + j.dev.name }

// jobsFor lists every workload on every device, device-major.
func jobsFor(ws []workloads.Workload, devs ...namedDevice) []job {
	var out []job
	for _, d := range devs {
		for _, w := range ws {
			out = append(out, job{w: w, dev: d})
		}
	}
	return out
}

type namedDevice struct {
	name string
	cfg  gpu.DeviceConfig
}

// forEach runs fn(i) for i in [0, n) on `lanes` goroutines that take
// indices in order — the feed order of the study engine's worker pool.
// Every call runs; the first error is returned.
func forEach(n, lanes int, fn func(i, lane int) error) error {
	next := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i, lane)
			}
		}(lane)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// launchAudit is one job's kernel-spec stream as an audit device records
// it: the launch names in issue order and whether each carries a memory
// trace (and so runs memsim's trace replay inside Device.Launch).
type launchAudit struct {
	names  []string
	traced []bool
}

// auditJobs runs every job against an audit device, which executes the
// application but records specs instead of simulating them.
func auditJobs(jobs []job, lanes int) ([]launchAudit, error) {
	out := make([]launchAudit, len(jobs))
	err := forEach(len(jobs), lanes, func(i, _ int) error {
		dev, err := gpu.NewAudit(jobs[i].dev.cfg)
		if err != nil {
			return err
		}
		if err := jobs[i].w.Run(profiler.NewSession(dev)); err != nil {
			return fmt.Errorf("auditing %s: %w", jobs[i].key(), err)
		}
		for _, s := range dev.AuditSpecs() {
			out[i].names = append(out[i].names, s.Name)
			out[i].traced = append(out[i].traced, s.Trace != nil)
		}
		return nil
	})
	return out, err
}

// taskTrace is one traced characterization: the benchmark's span around
// the core call and every event the workload's own recorder received.
type taskTrace struct {
	lane    int
	call    interval
	events  []telemetry.Event
	profile *core.Profile
}

// tracedRun is a traced catalog pass.
type tracedRun struct {
	jobs  []job
	tasks []taskTrace
	lanes int
	phase interval // the whole pass on the host clock
}

// tracedStudy characterizes every job as its own single-workload study with
// its own telemetry.Recorder, on `lanes` goroutines, so every launch span
// belongs to exactly one workload. cache may be nil.
func tracedStudy(jobs []job, lanes int, cache *core.ProfileCache) (tracedRun, error) {
	run := tracedRun{jobs: jobs, tasks: make([]taskTrace, len(jobs)), lanes: lanes}
	run.phase.start = telemetry.Now()
	err := forEach(len(jobs), lanes, func(i, lane int) error {
		rec := telemetry.NewRecorder()
		start := telemetry.Now()
		st, err := core.NewStudyWith(jobs[i].dev.cfg, core.StudyOptions{Workers: 1, Cache: cache, Tracer: rec}, jobs[i].w)
		end := telemetry.Now()
		if err != nil {
			return err
		}
		run.tasks[i] = taskTrace{lane: lane, call: interval{start, end}, events: rec.Events(), profile: st.Profiles[0]}
		return nil
	})
	run.phase.end = telemetry.Now()
	return run, err
}

// study assembles the traced profiles of one device, in job order.
func (r tracedRun) study(dev namedDevice) *core.Study {
	st := &core.Study{Device: dev.cfg}
	for i, j := range r.jobs {
		if j.dev.name == dev.name {
			st.Add(r.tasks[i].profile)
		}
	}
	return st
}

// tally is the per-layer account of a traced run, in seconds of host time
// unless named otherwise.
type tally struct {
	module     map[string]float64 // characterize span minus its launches
	launchSelf float64            // launches without a memory trace
	replay     float64            // launches that replay a memory trace
	launches   int64
	warpInsts  uint64
	dramTxns   uint64
	calls      float64 // sum of the benchmark's spans around each study
	badTasks   int64   // tasks whose spans fail the accounting checks
	modeledS   float64
	lanes      int
	phase      float64
}

// spanTol absorbs float rounding when comparing span endpoints.
const spanTol = 1e-6

// account tallies a traced run. Each task must hold exactly one
// characterize span inside the benchmark's call span, and launch spans
// inside it that match the audit's spec stream one for one.
func account(r tracedRun, audits []launchAudit) tally {
	t := tally{module: map[string]float64{}, lanes: r.lanes, phase: r.phase.dur()}
	for i, task := range r.tasks {
		var char []interval
		var launches []telemetry.Event
		for _, ev := range task.events {
			if ev.Track != telemetry.TrackHost || ev.Phase != telemetry.PhaseSpan {
				continue
			}
			switch ev.Cat {
			case "characterize":
				char = append(char, interval{ev.Start, ev.Start + ev.Dur})
			case "launch":
				launches = append(launches, ev)
			}
		}
		a := audits[i]
		ok := len(char) == 1 && len(launches) == len(a.names) &&
			char[0].start >= task.call.start-spanTol && char[0].end <= task.call.end+spanTol
		var kids []interval
		for k, ev := range launches {
			iv := interval{ev.Start, ev.Start + ev.Dur}
			kids = append(kids, iv)
			if !ok || ev.Name != a.names[k] || iv.start < char[0].start-spanTol || iv.end > char[0].end+spanTol {
				ok = false
				continue
			}
			if a.traced[k] {
				t.replay += iv.dur()
			} else {
				t.launchSelf += iv.dur()
			}
			t.launches++
			t.warpInsts += toUint(ev.Args["warp_insts"])
			t.dramTxns += toUint(ev.Args["dram_txns"])
		}
		t.calls += task.call.dur()
		t.modeledS += task.profile.TotalTime.Float()
		if !ok {
			t.badTasks++
			continue
		}
		t.module[moduleOf(r.jobs[i].w)] += selfTime(char[0], kids)
	}
	return t
}

func toUint(v any) uint64 {
	switch x := v.(type) {
	case uint64:
		return x
	case int64:
		return uint64(x)
	case int:
		return uint64(x)
	case float64:
		return uint64(x)
	}
	return 0
}

// identity splits the traced wall time, counted in lane-seconds, into layer
// self times plus the explicit unattributed remainder: the benchmark's
// per-workload study wrappers and loop overhead. It reports false when the
// layers claim more time than was spent or any part is negative.
func (t tally) identity() (rows []accountRow, unattributed float64, ok bool) {
	total := float64(t.lanes) * t.phase
	rows = []accountRow{}
	names := make([]string, 0, len(t.module))
	for m := range t.module {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		rows = append(rows, accountRow{m + " (functional compute + spec build)", t.module[m]})
	}
	rows = append(rows,
		accountRow{"gpu (Device.Launch without trace)", t.launchSelf},
		accountRow{"memsim (launches replaying a trace)", t.replay},
		accountRow{"idle lanes", float64(t.lanes)*t.phase - t.calls},
	)
	sum := 0.0
	ok = true
	for _, r := range rows {
		sum += r.s
		if r.s < -spanTol {
			ok = false
		}
	}
	unattributed = total - sum
	rows = append(rows, accountRow{"unattributed", unattributed}, accountRow{"traced wall (lane-seconds)", total})
	return rows, unattributed, ok && unattributed >= -spanTol && t.badTasks == 0
}

type accountRow struct {
	name string
	s    float64
}

// values returns the per-layer metrics the account supports and logs the
// identity table.
func (t tally) values(log io.Writer) (map[string]float64, bool) {
	rows, unattributed, ok := t.identity()
	total := rows[len(rows)-1].s
	fmt.Fprintln(log, "traced wall time by layer:")
	for _, r := range rows {
		fmt.Fprintf(log, "  %-40s %10.4f s  %6.2f%%\n", r.name, r.s, 100*r.s/total)
	}
	v := map[string]float64{
		"gpu.launch_self_s":       t.launchSelf,
		"gpu.launches":            float64(t.launches),
		"gpu.warp_insts":          float64(t.warpInsts),
		"gpu.modeled_s":           t.modeledS,
		"memsim.replay_launch_s":  t.replay,
		"memsim.dram_txns":        float64(t.dramTxns),
		"trace.unattributed_frac": unattributed / total,
	}
	if t.launches > 0 {
		v["gpu.launch_us"] = (t.launchSelf + t.replay) / float64(t.launches) * 1e6
	}
	for m, s := range t.module {
		v[m+".self_s"] = s
	}
	return v, ok
}

// writeChrome writes a traced run's spans, plus the benchmark's own span
// around each characterization, as Chrome trace JSON. Host events move to
// the lane that ran them; modeled events keep one lane per job.
func writeChrome(path string, r tracedRun) error {
	var evs []telemetry.Event
	for i, task := range r.tasks {
		evs = append(evs, telemetry.Event{
			Track: telemetry.TrackHost, Phase: telemetry.PhaseSpan, Name: r.jobs[i].key(), Cat: "bench",
			TID: task.lane, Start: task.call.start, Dur: task.call.dur(),
		})
		for _, ev := range task.events {
			if ev.Track == telemetry.TrackHost {
				ev.TID = task.lane
			} else {
				ev.TID = i
			}
			evs = append(evs, ev)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := telemetry.WriteChrome(w, evs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedule is core.Engine's schedule in a real study, read from the
// characterize spans its workers emit on their own TID lanes.
type schedule struct {
	critical float64 // longest characterize span
	busy     float64 // sum of characterize spans
	laneTime float64 // workers × study wall
	// ok is false when a span lies off the worker lanes or outside the
	// study, or overlaps another span on its lane.
	ok bool
}

// readSchedule tallies the characterize spans of one study that ran on
// `workers` lanes during wall. A worker runs one task at a time, so the
// spans on one lane must not overlap.
func readSchedule(events []telemetry.Event, workers int, wall interval) schedule {
	sc := schedule{laneTime: float64(workers) * wall.dur(), ok: true}
	lanes := make([][]interval, workers)
	for _, ev := range events {
		if ev.Track != telemetry.TrackHost || ev.Phase != telemetry.PhaseSpan || ev.Cat != "characterize" {
			continue
		}
		iv := interval{ev.Start, ev.Start + ev.Dur}
		if ev.TID < 0 || ev.TID >= workers || iv.start < wall.start-spanTol || iv.end > wall.end+spanTol {
			sc.ok = false
			continue
		}
		lanes[ev.TID] = append(lanes[ev.TID], iv)
		sc.busy += iv.dur()
		sc.critical = math.Max(sc.critical, iv.dur())
	}
	for _, spans := range lanes {
		sum := 0.0
		for _, iv := range spans {
			sum += iv.dur()
		}
		if sum > covered(wall, spans)+spanTol {
			sc.ok = false
		}
	}
	return sc
}

// enginePasses is how many untraced and how many traced real passes a
// traced run makes.
const enginePasses = 2

// enginePass is one real pass: what `cactus -no-cache all` characterizes.
type enginePass struct {
	wall  float64  // seconds, all devices
	sched schedule // traced passes only; summed over devices
}

// engineRun makes real passes — per device, one core.NewStudyWith over ws
// with Workers = lanes and no cache — alternately untraced and traced,
// enginePasses times each. It counts the studies whose profiles differ from
// the attribution pass's or whose schedule fails readSchedule's checks.
func engineRun(ws []workloads.Workload, devs []namedDevice, lanes int, ref tracedRun) (plain, traced []enginePass, bad int64, err error) {
	for i := 0; i < 2*enginePasses; i++ {
		tracing := i%2 == 1
		p := enginePass{sched: schedule{ok: true}}
		runtime.GC() // each pass starts from a collected heap
		for _, d := range devs {
			opts := core.StudyOptions{Workers: lanes}
			var rec *telemetry.Recorder
			if tracing {
				rec = telemetry.NewRecorder()
				opts.Tracer = rec
			}
			start := telemetry.Now()
			st, err := core.NewStudyWith(d.cfg, opts, ws...)
			span := interval{start, telemetry.Now()}
			if err != nil {
				return nil, nil, 0, err
			}
			p.wall += span.dur()
			if !sameProfiles(st, ref.study(d)) {
				bad++
			}
			if !tracing {
				continue
			}
			sc := readSchedule(rec.Events(), lanes, span)
			if !sc.ok {
				bad++
			}
			p.sched.critical = math.Max(p.sched.critical, sc.critical)
			p.sched.busy += sc.busy
			p.sched.laneTime += sc.laneTime
		}
		if tracing {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	return plain, traced, bad, nil
}

// engineValues turns real passes into the engine and tracing-cost metrics:
// schedule figures are medians over traced passes, and the cost of tracing
// is the ratio of median traced to median untraced pass walls.
func engineValues(plain, traced []enginePass) map[string]float64 {
	var critical, busyFrac, idle, plainWall, tracedWall []float64
	for _, p := range traced {
		critical = append(critical, p.sched.critical)
		busyFrac = append(busyFrac, p.sched.busy/p.sched.laneTime)
		idle = append(idle, p.sched.laneTime-p.sched.busy)
		tracedWall = append(tracedWall, p.wall)
	}
	for _, p := range plain {
		plainWall = append(plainWall, p.wall)
	}
	return map[string]float64{
		"engine.critical_task_s": median(critical),
		"engine.busy_frac":       median(busyFrac),
		"engine.idle_lane_s":     median(idle),
		"trace.overhead_frac":    median(tracedWall)/median(plainWall) - 1,
	}
}

// sameProfiles reports whether two studies hold the same profiles, in
// order, by their rendered tables.
func sameProfiles(a, b *core.Study) bool {
	if len(a.Profiles) != len(b.Profiles) {
		return false
	}
	for i := range a.Profiles {
		if !sameTable(a.Profiles[i], b.Profiles[i]) {
			return false
		}
	}
	return true
}

// sameTable reports whether two profiles render the same table.
func sameTable(a, b *core.Profile) bool {
	var x, y bytes.Buffer
	return core.WriteProfileTable(&x, a) == nil && core.WriteProfileTable(&y, b) == nil && bytes.Equal(x.Bytes(), y.Bytes())
}

// warmTraced is catalog_warm's traced run: the cache is primed by the
// attribution pass (its compute layers are the set-up's), real passes give
// the engine's schedule and the cost of tracing, then warm passes are timed
// layer by layer.
func warmTraced(cfg config, ws []workloads.Workload, dev namedDevice) (outcome, error) {
	jobs := jobsFor(ws, dev)
	audits, err := auditJobs(jobs, cfg.workers)
	if err != nil {
		return outcome{}, err
	}
	cache, err := core.OpenCache(filepath.Join(cfg.dir, "prime"))
	if err != nil {
		return outcome{}, err
	}
	tr, err := tracedStudy(jobs, cfg.workers, cache)
	if err != nil {
		return outcome{}, err
	}
	chk, err := primedChecker(tr.study(dev))
	if err != nil {
		return outcome{}, err
	}
	t := account(tr, audits)
	out := outcome{failed: t.badTasks}
	v, ok := t.values(cfg.log)
	if !ok {
		out.failed++
	}
	plain, traced, bad, err := engineRun(ws, []namedDevice{dev}, cfg.workers, tr)
	if err != nil {
		return outcome{}, err
	}
	out.failed += bad
	for k, x := range engineValues(plain, traced) {
		v[k] = x
	}

	var (
		loads, fig8, fig9, report []time.Duration
		ctr                       *telemetry.Counters
		last                      pass
	)
	runtime.GC()
	deadline := time.Now().Add(cfg.seconds)
	for len(loads) == 0 || time.Now().Before(deadline) {
		ctr = telemetry.NewCounters()
		p, err := runPass(dev.cfg, core.StudyOptions{Workers: cfg.workers, Cache: cache, Counters: ctr}, ws)
		if err != nil {
			return outcome{}, err
		}
		out.attempted++
		if !chk.passOK(p) || chk.badProfiles(p.st) > 0 {
			out.failed++
		}
		loads = append(loads, p.study)
		fig8 = append(fig8, p.render.fig8)
		fig9 = append(fig9, p.render.fig9)
		report = append(report, p.render.report)
		last = p
	}
	v["core.cache_load_ms"] = median(millis(loads))
	v["core.cache_hits"] = float64(ctr.Get(telemetry.CtrCacheHits))
	v["core.cache_misses"] = float64(ctr.Get(telemetry.CtrCacheMisses))
	v["stats.figure8_ms"] = median(millis(fig8))
	v["stats.figure9_ms"] = median(millis(fig9))
	v["report.figures_ms"] = median(millis(report))
	v["report.output_bytes"] = float64(len(last.out))
	out.fp = passFingerprint(last)
	out.fp.DRAMTxns = t.dramTxns
	if out.metrics, err = layerMetrics(v); err != nil {
		return outcome{}, err
	}
	return out, writeChrome(cfg.traceFile, tr)
}
