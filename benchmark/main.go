// Command cactusbench is the repository's end-to-end benchmark. It drives
// the characterization pipeline only through its public entry points
// (core.NewStudyWith, core.OpenCache, the figure and table renderers,
// core.Attribute, and server.New(...).Handler() on a loopback listener) and
// prints one JSON result line:
//
//	cactusbench --workload catalog_warm --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the workload again with telemetry attached and reports
// the per-layer metrics instead. README.md in this directory lists every
// metric with its layer and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workers bounds every source of concurrency the benchmark creates:
	// study workers, serve clients and client connections.
	workers int
	// dir is a private scratch directory for profile caches.
	dir string
	// traceFile receives the Chrome trace of a traced run.
	traceFile string
	log       io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: its operation counts, the metrics of
// the requested kind, and the simulated-statistics fingerprint.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	fp                fingerprint
}

var workloadsByName = map[string]func(config) (outcome, error){
	"catalog_warm": catalogWarm,
	"serve_closed": serveClosed,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cactusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (catalog_warm, serve_closed)")
	seed := fs.Int64("seed", 1, "seed for the serve request mix")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		names := make([]string, 0, len(workloadsByName))
		for n := range workloadsByName {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "cactusbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	// Scratch space lives inside the working directory (the checkout), never
	// in the system temp directory.
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "cactusbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "cactusbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		workers:   runtime.NumCPU(),
		dir:       dir,
		traceFile: filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)),
		log:       stderr,
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "cactusbench:", err)
		return 1
	}
	if out.attempted < 1 {
		fmt.Fprintln(stderr, "cactusbench: no operation completed")
		return 1
	}
	fpLine, err := json.Marshal(out.fp)
	if err != nil {
		fmt.Fprintln(stderr, "cactusbench:", err)
		return 1
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cactusbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "fingerprint %s\n%s\n", fpLine, line)
	return 0
}
