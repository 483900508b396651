package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks, or NaN for no samples. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// interval is a span on the host clock, in seconds.
type interval struct{ start, end float64 }

func (iv interval) dur() float64 { return iv.end - iv.start }

// covered returns how much of parent the union of children covers. Children
// are clipped to parent and overlaps count once.
func covered(parent interval, children []interval) float64 {
	var clipped []interval
	for _, c := range children {
		s, e := math.Max(c.start, parent.start), math.Min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total, reach := 0.0, parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		total += c.end - math.Max(c.start, reach)
		reach = c.end
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans cover.
func selfTime(parent interval, children []interval) float64 {
	return parent.dur() - covered(parent, children)
}

// segments is how many equal windows a timed phase is split into. Latency
// quantiles and throughput are medians over windows, so a burst of host
// noise inside one window moves none of them.
const segments = 5

// windowsAfter is how many windows follow set-up repetition i of n, for a
// timed phase spread over the fresh servers of several set-ups so that its
// windows sample the host at different times.
func windowsAfter(i, n int) int {
	k := segments / n
	if i < segments%n {
		k++
	}
	return k
}

// window is one segment of a timed phase.
type window struct {
	lat     []float64 // per-operation latency, ms
	ops     int       // operations completed
	elapsed time.Duration
}

// add records one timed operation that completed n operations.
func (w *window) add(d time.Duration, n int) {
	w.lat = append(w.lat, float64(d.Nanoseconds())/1e6)
	w.ops += n
	w.elapsed += d
}

// e2eMetrics builds the end-to-end metric set every workload reports.
func e2eMetrics(setupS float64, wins []window) map[string]metric {
	var p50, rate []float64
	for _, w := range wins {
		p50 = append(p50, median(w.lat))
		rate = append(rate, float64(w.ops)/w.elapsed.Seconds())
	}
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"latency_p50_ms":   {median(p50), "ms"},
		"throughput_ops_s": {median(rate), "1/s"},
	}
}

// logTail writes the p99 latency, the median over windows of each window's
// p99, to the run's log with its sample count. It is not a reported metric:
// on a shared host the slowest percent of operations is set by the host's
// preemptions, not by the program (see README.md).
func logTail(cfg config, wins []window) {
	var p99 []float64
	n := 0
	for _, w := range wins {
		p99 = append(p99, quantile(w.lat, 0.99))
		n += len(w.lat)
	}
	fmt.Fprintf(cfg.log, "cactusbench: latency p99 %.4f ms (median over %d windows of %d operations; not a bounded metric)\n", median(p99), len(wins), n)
}
