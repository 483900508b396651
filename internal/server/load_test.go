package server

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// loadRequest is one deterministic entry of the load mix.
type loadRequest struct {
	method, target, body string
	admitted             bool // true when the request flows through the api() funnel
}

// loadMix builds the deterministic mixed-query workload: every endpoint
// type, every (workload, device) combination, both formats.
func loadMix(wls, devs []string) []loadRequest {
	var mix []loadRequest
	for _, w := range wls {
		for _, d := range devs {
			mix = append(mix,
				loadRequest{"GET", fmt.Sprintf("/api/v1/profile?workload=%s&device=%s", w, d), "", true},
				loadRequest{"GET", fmt.Sprintf("/api/v1/profile?workload=%s&device=%s&format=text", w, d), "", true},
				loadRequest{"GET", fmt.Sprintf("/api/v1/roofline?workload=%s&device=%s", w, d), "", true},
				loadRequest{"GET", fmt.Sprintf("/api/v1/explain?workload=%s&device=%s", w, d), "", true},
			)
		}
		mix = append(mix, loadRequest{"GET", "/api/v1/compare?workload=" + w + "&format=text", "", true})
	}
	mix = append(mix,
		loadRequest{"GET", "/api/v1/workloads", "", false},
		loadRequest{"POST", "/api/v1/batch",
			`{"queries":[{"kind":"profile","workload":"` + wls[0] + `"},{"kind":"roofline","workload":"` + wls[1] + `","device":"` + devs[1] + `"}]}`,
			true},
	)
	return mix
}

// TestServeLoadMixed is the server's acceptance test: at least 1000
// concurrent mixed requests against one server, run under -race in CI.
// Every response must be byte-identical to the same query answered by a
// fresh single-worker server (cold serial study), each combination must be
// characterized exactly once with exactly its cell filled, no request may
// be rejected, and p99 latency must stay within bounds.
func TestServeLoadMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("fires >1000 concurrent requests")
	}
	wls := []string{"pb-sgemm", "pb-spmv", "rd-nn"}
	devs := []string{"rtx3080", "gtx1080"}
	mix := loadMix(wls, devs)

	// Reference pass: each unique request against its own fresh serial
	// server, so references are cold, deterministic, and uninfluenced by
	// the server under test.
	refs := make(map[string][]byte, len(mix))
	for _, rq := range mix {
		ref, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rr := do(t, ref, rq.method, rq.target, strings.NewReader(rq.body))
		if rr.Code != 200 {
			t.Fatalf("reference %s %s: status %d\n%s", rq.method, rq.target, rr.Code, rr.Body.String())
		}
		refs[rq.method+" "+rq.target] = rr.Body.Bytes()
		if err := ref.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	const total = 1200
	s := newTestServer(t, Options{
		Workers:     8,
		MaxInFlight: total + 1, // overload rejection is tested separately
		Timeout:     5 * time.Minute,
	})

	var (
		wg        sync.WaitGroup
		latencies = make([]time.Duration, total)
		badStatus atomic.Int64
		badBytes  atomic.Int64
		firstDiff sync.Once
		admitted  int64
	)
	for i := 0; i < total; i++ {
		rq := mix[i%len(mix)]
		if rq.admitted {
			admitted++
		}
		wg.Add(1)
		go func(i int, rq loadRequest) {
			defer wg.Done()
			start := time.Now()
			rr := do(t, s, rq.method, rq.target, strings.NewReader(rq.body))
			latencies[i] = time.Since(start)
			if rr.Code != 200 {
				badStatus.Add(1)
				firstDiff.Do(func() {
					t.Errorf("%s %s: status %d\n%s", rq.method, rq.target, rr.Code, rr.Body.String())
				})
				return
			}
			if !bytes.Equal(rr.Body.Bytes(), refs[rq.method+" "+rq.target]) {
				badBytes.Add(1)
				firstDiff.Do(func() {
					t.Errorf("%s %s: response differs from cold serial reference\ngot:\n%s\nwant:\n%s",
						rq.method, rq.target, rr.Body.Bytes(), refs[rq.method+" "+rq.target])
				})
			}
		}(i, rq)
	}
	wg.Wait()

	if n := badStatus.Load(); n != 0 {
		t.Errorf("%d/%d requests returned a non-200 status", n, total)
	}
	if n := badBytes.Load(); n != 0 {
		t.Errorf("%d/%d responses were not byte-identical to their cold serial reference", n, total)
	}

	// Latency: p99 over all requests, including the cold studies.
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50, p99 := sorted[total/2], sorted[total*99/100]
	t.Logf("latency: p50 %v, p99 %v, max %v", p50, p99, sorted[total-1])
	if p99 > 5*time.Second {
		t.Errorf("p99 latency %v exceeds 5s", p99)
	}

	// Each (workload, device) combination is characterized exactly once no
	// matter how many requests raced for it, and only the asked-for cells
	// are filled.
	combos := int64(len(wls) * len(devs))
	get := s.ctr.Get
	if got := get(telemetry.CtrWorkloads); got != combos {
		t.Errorf("workloads characterized = %d, want exactly %d (each cell must compute once)", got, combos)
	}
	if got := get(telemetry.CtrServeRequests); got != admitted {
		t.Errorf("serve.requests = %d, want %d", got, admitted)
	}
	for _, ctr := range []string{
		telemetry.CtrServeRejectedQueue,
		telemetry.CtrServeRejectedShutdown,
		telemetry.CtrServeDeadlineExceeded,
	} {
		if got := get(ctr); got != 0 {
			t.Errorf("%s = %d, want 0", ctr, got)
		}
	}
	filled := 0
	for _, c := range s.cells {
		select {
		case <-c.done:
			filled++
		default:
		}
	}
	if int64(filled) != combos {
		t.Errorf("%d cells filled, want %d", filled, combos)
	}
}
