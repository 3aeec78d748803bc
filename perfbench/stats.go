package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// ungated metrics are printed in the table but left out of the result
// line. hit_p99_ms, miss_p50_ms and miss_p90_ms spread too much between
// runs to gate on a shared two-core host: over ten seeds the
// interquartile range of hit_p99_ms reached 0.39 of the median, and the
// grids' miss median falls between the clusters of different studies'
// times. p50_ms falls among the hits in every workload, where hits are
// five requests in six or more, so it repeats hit_p50_ms.
var ungated = map[string]bool{"p50_ms": true, "hit_p99_ms": true, "miss_p50_ms": true, "miss_p90_ms": true}

// metric is one reported number. samples is how many measurements it
// summarizes (a count metric from one deterministic pass has 1).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func metricMap(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		if ungated[m.name] {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

// printTable writes a human-readable summary with sample counts to
// standard error, so standard output ends with the JSON result line.
func printTable(r *result) {
	fmt.Fprintf(os.Stderr, "%-40s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range r.metrics {
		note := ""
		if ungated[m.name] {
			note = "  (not in the result line)"
		}
		fmt.Fprintf(os.Stderr, "%-40s %16.6g %-6s %8d%s\n", m.name, m.value, m.unit, m.samples, note)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(os.Stderr, "%-40s %16.6g %-6s %8d\n", "error_frac", frac, "1", r.attempted)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileMetric reports the q-quantile of xs with its sample count.
func percentileMetric(name string, xs []float64, q float64) metric {
	return metric{name: name, value: quantile(xs, q), unit: "ms", samples: len(xs)}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d float64) float64 { return d * 1e3 }

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupMetric reports setup_s as the median of the set-up reps ts, and
// prints their spread to standard error.
func setupMetric(ts []float64) metric {
	fmt.Fprintf(os.Stderr, "set-up: %d reps, quartiles %.6f %.6f %.6f s\n",
		len(ts), quantile(ts, 0.25), median(ts), quantile(ts, 0.75))
	return metric{"setup_s", median(ts), "s", len(ts)}
}
