package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestExplainCommand — the text report carries every tree level and all
// four bottleneck categories, and two runs are byte-identical (the
// modeled track is deterministic).
func TestExplainCommand(t *testing.T) {
	explain := func() string {
		var out bytes.Buffer
		if err := run([]string{"-no-cache", "explain", "GMS", "pb-sgemm"}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got := explain()
	for _, want := range []string{
		"NVIDIA GeForce RTX 3080", "GMS", "pb-sgemm", "mysgemmNT",
		"dram", "compute", "latency", "overhead", "launches",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explain output missing %q:\n%s", want, got)
		}
	}
	if got != explain() {
		t.Error("two explain runs differ byte for byte")
	}
}

// TestExplainJSON — -json emits a parseable tree whose shares sum to 1 at
// the root and which descends study → workload → phase.
func TestExplainJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-cache", "explain", "-json", "pb-sgemm"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	type node struct {
		Level    string             `json:"level"`
		Name     string             `json:"name"`
		Shares   map[string]float64 `json:"shares"`
		Children []node             `json:"children"`
	}
	var root node
	if err := json.Unmarshal(out.Bytes(), &root); err != nil {
		t.Fatalf("explain -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if root.Level != "study" || len(root.Children) != 1 || root.Children[0].Level != "workload" {
		t.Errorf("tree shape = %+v", root)
	}
	var sum float64
	for _, v := range root.Shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("root shares sum to %g, want 1", sum)
	}
}

// TestExplainLaunches — -launches descends to individual launch leaves.
func TestExplainLaunches(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-cache", "explain", "-launches", "pb-sgemm"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mysgemmNT#0") {
		t.Errorf("launch-depth output has no launch leaf:\n%s", out.String())
	}
}

// TestMetricsFlag — -metrics FILE writes a Prometheus text snapshot of
// the study's counters and histograms.
func TestMetricsFlag(t *testing.T) {
	file := filepath.Join(t.TempDir(), "metrics.txt")
	var errOut bytes.Buffer
	if err := run([]string{"-no-cache", "-metrics", file, "run", "pb-sgemm"}, io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE cactus_gpu_launches gauge",
		"# TYPE cactus_workload_modeled_seconds histogram",
		`cactus_workload_modeled_seconds_bucket{le="+Inf"} 1`,
		"cactus_kernel_l1_hit_rate_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut.String(), "wrote metrics snapshot") {
		t.Errorf("stderr lacks the snapshot notice: %q", errOut.String())
	}
}

// TestLogFlag — -log emits one structured completion record per workload
// on stderr, from a parallel study too (the handler serializes), with
// every record key; alongside -v both outputs appear; a cache store
// failure is logged as a warning before its record.
func TestLogFlag(t *testing.T) {
	ws := []string{"pb-sgemm", "pb-spmv", "rd-nn"}
	var errOut bytes.Buffer
	if err := run(append([]string{"-no-cache", "-j", "2", "-log", "json", "run"}, ws...), io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	out := errOut.String()
	if got := strings.Count(out, `"msg":"workload characterized"`); got != len(ws) {
		t.Errorf("-log saw %d completion records, want %d:\n%s", got, len(ws), out)
	}
	for _, w := range ws {
		if !strings.Contains(out, `"workload":"`+w+`"`) {
			t.Errorf("no record for %s:\n%s", w, out)
		}
	}
	for _, key := range []string{`"kernels":`, `"modeled_ms":`, `"wall_ms":`, `"cache":"disabled"`} {
		if !strings.Contains(out, key) {
			t.Errorf("records lack %s:\n%s", key, out)
		}
	}

	errOut.Reset()
	if err := run([]string{"-no-cache", "-j", "1", "-v", "-log", "text", "run", "pb-sgemm"}, io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cactus: pb-sgemm: ", `msg="workload characterized" workload=pb-sgemm`} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("-v -log text output missing %q:\n%s", want, errOut.String())
		}
	}

	errOut.Reset()
	logProgress(slog.New(slog.NewJSONHandler(&errOut, nil)), core.WorkloadProgress{
		Abbr: "pb-sgemm", Cache: core.CacheMiss, StoreErr: errors.New("disk full"),
	})
	lines := strings.Split(strings.TrimSpace(errOut.String()), "\n")
	if len(lines) != 2 ||
		!strings.Contains(lines[0], `"level":"WARN","msg":"profile cache store failed","workload":"pb-sgemm","error":"disk full"`) ||
		!strings.Contains(lines[1], `"msg":"workload characterized","workload":"pb-sgemm"`) {
		t.Errorf("store failure not logged as a warning before its record:\n%s", errOut.String())
	}
}

// TestStudyOutputUnaffectedByObservability — the acceptance criterion
// that observability is an overlay: the same command with every
// observability surface enabled produces byte-identical stdout.
func TestStudyOutputUnaffectedByObservability(t *testing.T) {
	file := filepath.Join(t.TempDir(), "m.txt")
	var plain, observed bytes.Buffer
	if err := run([]string{"-no-cache", "run", "pb-sgemm", "pb-spmv"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-no-cache", "-v", "-log", "json", "-metrics", file, "run", "pb-sgemm", "pb-spmv"},
		&observed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if plain.String() != observed.String() {
		t.Errorf("stdout differs with observability enabled:\n--- plain\n%s--- observed\n%s",
			plain.String(), observed.String())
	}
}
