package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/suites/rodinia"
	"repro/internal/telemetry"
)

func TestQuantile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{7}, 0.99, 7},
		{hundred, 0.99, 99.01},
		{hundred, 0.5, 50.5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 10}
	cases := []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []interval{{1, 2}, {4, 7}}, 6},
		{"overlapping count once", []interval{{1, 3}, {2, 4}}, 7},
		{"nested", []interval{{1, 5}, {2, 3}}, 6},
		{"clipped to parent", []interval{{8, 12}, {-2, 1}}, 7},
		{"outside parent", []interval{{-3, -1}, {11, 12}}, 10},
		{"covers parent", []interval{{-1, 11}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: selfTime = %g, want %g", c.name, got, c.want)
		}
	}
}

// hostSpan is a host-track span event.
func hostSpan(cat, name string, start, end float64, args map[string]any) telemetry.Event {
	return telemetry.Event{Track: telemetry.TrackHost, Phase: telemetry.PhaseSpan,
		Cat: cat, Name: name, Start: start, Dur: end - start, Args: args}
}

func TestAccount(t *testing.T) {
	w := rodinia.All()[0]
	jobs := []job{{w: w, dev: rtx3080}, {w: w, dev: rtx3080}}
	prof := &core.Profile{Workload: w}
	launch := func(name string, start, end float64) telemetry.Event {
		return hostSpan("launch", name, start, end, map[string]any{"warp_insts": uint64(10), "dram_txns": uint64(3)})
	}
	run := tracedRun{
		jobs:  jobs,
		lanes: 2,
		phase: interval{0, 10},
		tasks: []taskTrace{
			{lane: 0, call: interval{0, 6}, profile: prof, events: []telemetry.Event{
				hostSpan("characterize", w.Abbr(), 0.5, 5.5, nil),
				launch("a", 1, 2),
				launch("b", 3, 3.5),
			}},
			// A launch outside its workload's characterize span cannot be
			// attributed: the task fails the account.
			{lane: 1, call: interval{0, 4}, profile: prof, events: []telemetry.Event{
				hostSpan("characterize", w.Abbr(), 0, 3, nil),
				launch("a", 3.5, 3.7),
			}},
		},
	}
	audits := []launchAudit{
		{names: []string{"a", "b"}, traced: []bool{false, true}},
		{names: []string{"a"}, traced: []bool{false}},
	}
	tl := account(run, audits)
	if tl.badTasks != 1 {
		t.Fatalf("badTasks = %d, want 1", tl.badTasks)
	}
	if tl.launchSelf != 1 || tl.replay != 0.5 || tl.launches != 2 || tl.warpInsts != 20 || tl.dramTxns != 6 {
		t.Errorf("launch tally = %+v", tl)
	}
	if got := tl.module["suites"]; got != 3.5 {
		t.Errorf("suites self time = %g, want 3.5", got)
	}
	if tl.calls != 10 {
		t.Errorf("call time = %g, want 10", tl.calls)
	}
	if _, _, ok := tl.identity(); ok {
		t.Error("identity holds despite an unattributable launch")
	}

	// Without the bad task the identity holds and the unattributed share
	// is the call time outside characterize spans.
	run.tasks, run.jobs, audits = run.tasks[:1], run.jobs[:1], audits[:1]
	run.lanes, run.phase = 1, interval{0, 7}
	tl = account(run, audits)
	rows, unattributed, ok := tl.identity()
	if !ok || math.Abs(unattributed-1) > 1e-12 {
		t.Fatalf("identity: unattributed %g ok %v rows %v", unattributed, ok, rows)
	}
	sum := 0.0
	for _, r := range rows[:len(rows)-1] {
		sum += r.s
	}
	if total := rows[len(rows)-1].s; math.Abs(sum-total) > 1e-12 || total != 7 {
		t.Errorf("rows sum to %g, traced wall %g, want both 7", sum, total)
	}
}

func TestIdentityRejectsOverclaim(t *testing.T) {
	tl := tally{module: map[string]float64{"md": 3}, lanes: 1, phase: 2, calls: 2}
	if _, _, ok := tl.identity(); ok {
		t.Error("identity holds although the layers claim more time than was traced")
	}
}

func TestReadSchedule(t *testing.T) {
	span := func(tid int, start, end float64) telemetry.Event {
		ev := hostSpan("characterize", "w", start, end, nil)
		ev.TID = tid
		return ev
	}
	wall := interval{0, 10}
	events := []telemetry.Event{
		span(0, 0, 6), span(0, 6, 9), span(1, 1, 4),
		hostSpan("launch", "k", 1, 2, nil), // not a task
	}
	sc := readSchedule(events, 2, wall)
	if !sc.ok || sc.critical != 6 || sc.busy != 12 || sc.laneTime != 20 {
		t.Errorf("readSchedule = %+v", sc)
	}
	bad := map[string][]telemetry.Event{
		"overlap on a lane": {span(0, 0, 6), span(0, 5, 9)},
		"lane out of range": {span(2, 0, 1)},
		"outside the study": {span(1, 9, 11)},
	}
	for name, evs := range bad {
		if readSchedule(evs, 2, wall).ok {
			t.Errorf("%s: schedule accepted", name)
		}
	}
}

func TestEngineValues(t *testing.T) {
	plain := []enginePass{{wall: 4}, {wall: 6}}
	traced := []enginePass{
		{wall: 5.5, sched: schedule{critical: 3, busy: 8, laneTime: 10, ok: true}},
		{wall: 6.5, sched: schedule{critical: 2, busy: 6, laneTime: 10, ok: true}},
	}
	v := engineValues(plain, traced)
	want := map[string]float64{
		"engine.critical_task_s": 2.5,
		"engine.busy_frac":       0.7,
		"engine.idle_lane_s":     3,
		"trace.overhead_frac":    0.2,
	}
	for k, x := range want {
		if math.Abs(v[k]-x) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, v[k], x)
		}
	}
}

func TestQueryPoolIsUniformOverShapes(t *testing.T) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	pool := newQueryPool(cat.All())
	seen := map[string]bool{}
	for _, r := range pool.reqs {
		k := r.method + " " + r.target + " " + string(r.body)
		if seen[k] {
			t.Errorf("duplicate query %s", k)
		}
		seen[k] = true
	}
	shapeOf := map[int]int{}
	for s, idx := range pool.shapes {
		for _, i := range idx {
			shapeOf[i] = s
		}
	}
	if len(shapeOf) != len(pool.reqs) {
		t.Fatalf("%d of %d queries belong to a shape", len(shapeOf), len(pool.reqs))
	}
	const draws = 80000
	counts := make([]int, len(pool.shapes))
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < draws; n++ {
		counts[shapeOf[pool.draw(rng)]]++
	}
	want := float64(draws) / float64(len(pool.shapes))
	for s, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("shape %d drawn %d times, want about %.0f", s, c, want)
		}
	}
}

func TestLayerMetrics(t *testing.T) {
	m, err := layerMetrics(map[string]float64{"md.self_s": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(perLayer) || m["md.self_s"] != (metric{1.5, "s"}) || m["gpu.launches"] != (metric{0, "count"}) {
		t.Errorf("layerMetrics = %v", m)
	}
	if _, err := layerMetrics(map[string]float64{"nope": 1}); err == nil {
		t.Error("unknown metric accepted")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the code
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := e2eMetrics(1, []window{{lat: []float64{1}, ops: 1, elapsed: time.Second}})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("code reports %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): code reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("code reports %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: code %v, BENCHMARK.json %+v", i, perLayer[i], m)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadsByName[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
