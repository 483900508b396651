package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// TestParallelStudyMatchesSerial characterizes the 32 baseline workloads
// serially and on 8 workers and requires identical profile order plus
// byte-identical rendered output for the figures that consume this study —
// the tentpole's determinism contract.
func TestParallelStudyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the baseline workloads twice")
	}
	cfg := gpu.RTX3080()
	ws := BaselineWorkloads()
	serial, err := NewStudy(cfg, ws...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewStudyWith(cfg, StudyOptions{Workers: 8}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Profiles) != len(parallel.Profiles) {
		t.Fatalf("profile counts differ: serial %d, parallel %d",
			len(serial.Profiles), len(parallel.Profiles))
	}
	for i := range serial.Profiles {
		if s, p := serial.Profiles[i].Abbr(), parallel.Profiles[i].Abbr(); s != p {
			t.Fatalf("profile %d: order differs: serial %s, parallel %s", i, s, p)
		}
	}
	renderers := map[string]func(*Study, *bytes.Buffer) error{
		"figure2": func(st *Study, b *bytes.Buffer) error { return Figure2(st, b) },
		"figure4": func(st *Study, b *bytes.Buffer) error { return Figure4(st, b) },
		"table1":  func(st *Study, b *bytes.Buffer) error { return Table1(st, b) },
	}
	for name, render := range renderers {
		var a, b bytes.Buffer
		if err := render(serial, &a); err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if err := render(parallel, &b); err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if a.Len() == 0 {
			t.Fatalf("%s rendered no output", name)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: parallel output differs from serial", name)
		}
	}
}

// failingWorkload fails its run after recording that it started.
type failingWorkload struct {
	abbr   string
	starts *atomic.Int32
}

func (f failingWorkload) Name() string             { return f.abbr }
func (f failingWorkload) Abbr() string             { return f.abbr }
func (f failingWorkload) Suite() workloads.Suite   { return workloads.Cactus }
func (f failingWorkload) Domain() workloads.Domain { return workloads.Scientific }
func (f failingWorkload) Run(*profiler.Session) error {
	f.starts.Add(1)
	return fmt.Errorf("boom in %s", f.abbr)
}

// TestParallelStudyError — a failing workload must fail the whole study,
// stop feeding further work, and not panic or deadlock the pool.
func TestParallelStudyError(t *testing.T) {
	var starts atomic.Int32
	ws := make([]workloads.Workload, 16)
	for i := range ws {
		ws[i] = failingWorkload{abbr: fmt.Sprintf("F%02d", i), starts: &starts}
	}
	_, err := NewStudyWith(gpu.RTX3080(), StudyOptions{Workers: 4}, ws...)
	if err == nil {
		t.Fatal("expected the study to fail")
	}
	if n := starts.Load(); n == 0 || n == 16 {
		t.Logf("starts=%d (early-exit is best-effort)", n)
	}
}

// TestWorkerDefaults — Workers <= 0 must still characterize everything and
// preserve order.
func TestWorkerDefaults(t *testing.T) {
	ws := BaselineWorkloads()[:4]
	st, err := NewStudyWith(gpu.RTX3080(), StudyOptions{Workers: -1}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Profiles) != len(ws) {
		t.Fatalf("got %d profiles, want %d", len(st.Profiles), len(ws))
	}
	for i, w := range ws {
		if st.Profiles[i].Abbr() != w.Abbr() {
			t.Errorf("profile %d is %s, want %s", i, st.Profiles[i].Abbr(), w.Abbr())
		}
	}
}

// TestConcurrentStudiesDeterministic — many overlapping studies and
// single-workload characterizations on both devices, each on its own
// device and worker pool, must each produce output byte-identical to the
// serial pipeline, and leave no goroutine behind.
func TestConcurrentStudiesDeterministic(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var ws []workloads.Workload
	for _, abbr := range []string{"pb-sgemm", "pb-spmv", "rd-nn"} {
		w, err := cat.Lookup(abbr)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	configs := []gpu.DeviceConfig{gpu.RTX3080(), gpu.GTX1080()}
	render := func(p *Profile) []byte {
		var buf bytes.Buffer
		if err := WriteProfileTable(&buf, p); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}

	want := make(map[string][]byte)
	for _, cfg := range configs {
		st, err := NewStudy(cfg, ws...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range st.Profiles {
			want[cfg.Name+"/"+p.Abbr()] = render(p)
		}
	}

	check := func(cfg gpu.DeviceConfig, p *Profile, path string) {
		if !bytes.Equal(render(p), want[cfg.Name+"/"+p.Abbr()]) {
			t.Errorf("%s on %s: concurrent %s output differs from the serial study", p.Abbr(), cfg.Name, path)
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, cfg := range configs {
			wg.Add(2)
			go func(cfg gpu.DeviceConfig) {
				defer wg.Done()
				st, err := NewStudyWith(cfg, StudyOptions{Workers: 2}, ws...)
				if err != nil {
					t.Errorf("study on %s: %v", cfg.Name, err)
					return
				}
				for _, p := range st.Profiles {
					check(cfg, p, "NewStudyWith")
				}
			}(cfg)
			go func(cfg gpu.DeviceConfig, w workloads.Workload) {
				defer wg.Done()
				p, err := Characterize(w, cfg)
				if err != nil {
					t.Errorf("characterize on %s: %v", cfg.Name, err)
					return
				}
				check(cfg, p, "Characterize")
			}(cfg, ws[round%len(ws)])
		}
	}
	wg.Wait()
}
