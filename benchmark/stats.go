package main

// Sample statistics: the percentile rule, and the window summary every timed
// phase is reported through.

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation, timed by the caller that waited for it.
type sample struct {
	start time.Duration // since the phase began
	dur   time.Duration
}

func (s sample) end() time.Duration { return s.start + s.dur }

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: p95 needs 200 samples, p99 needs 1,000. (-smoke asks for
// none: it checks code paths, not numbers.)
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted values. For a
// tail percentile (p > 0.5) ok is false when fewer than beyond samples lie
// beyond it: a value resting on a handful of outliers is noise, and a run
// that cannot support its percentile is too short, not merely imprecise.
// The median is always supported.
func percentile(sorted []float64, p float64, beyond int) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < beyond {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5, 0)
	return v
}

// spread is (max-min)/median: how far apart the windows of one phase lie.
func spread(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(values)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// The window rule: a phase is cut into phaseWindows consecutive windows of
// equal op count, each statistic is computed per window, and the phase
// reports the median window with the spread beside it. One slow stretch — a
// checkpoint, a neighbour on the host — then moves one window, not the
// result. A phase with fewer than minWindowOps per window is reported whole.
const (
	phaseWindows = 5
	minWindowOps = 5
)

// summary is what one stream of one phase reports.
type summary struct {
	N       int     // samples
	Windows int     // 5, or 1 when the phase was too short to cut
	P50     float64 // ms, median window
	P95     float64 // ms, median window; NaN when a window cannot support it
	PerSec  float64 // ops/s, median window
	// Spread* are (max-min)/median across windows.
	SpreadP50, SpreadP95, SpreadPerSec float64
	// P99 is over the whole phase, NaN when it has under 1,000 samples.
	P99 float64
}

// summarize applies the window rule to the samples of one stream. Samples
// may arrive from several connections; they are ordered by completion time.
func summarize(samples []sample, beyond int) summary {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].end() < s[j].end() })
	out := summary{N: len(s), Windows: phaseWindows, P95: math.NaN(), P99: math.NaN()}
	if len(s) == 0 {
		out.Windows = 0
		return out
	}
	if len(s) < phaseWindows*minWindowOps {
		out.Windows = 1
	}
	var p50s, p95s, rates []float64
	p95ok := true
	for w := 0; w < out.Windows; w++ {
		win := s[w*len(s)/out.Windows : (w+1)*len(s)/out.Windows]
		ms := sortedMillis(win)
		p50, _ := percentile(ms, 0.5, 0)
		p95, ok := percentile(ms, 0.95, beyond)
		p95ok = p95ok && ok
		p50s, p95s = append(p50s, p50), append(p95s, p95)
		// A window runs from the completion of the op before it (the start
		// of its first op, for the first window) to its last completion.
		from := win[0].start
		if w > 0 {
			from = s[w*len(s)/out.Windows-1].end()
		}
		if span := win[len(win)-1].end() - from; span > 0 {
			rates = append(rates, float64(len(win))/span.Seconds())
		}
	}
	out.P50, out.SpreadP50 = median(p50s), spread(p50s)
	if out.Windows == 1 {
		// Too few ops to cut: the spread is that of the ops themselves.
		out.SpreadP50 = spread(sortedMillis(s))
	}
	if p95ok {
		out.P95, out.SpreadP95 = median(p95s), spread(p95s)
	}
	out.PerSec, out.SpreadPerSec = median(rates), spread(rates)
	if p99, ok := percentile(sortedMillis(s), 0.99, beyond); ok {
		out.P99 = p99
	}
	return out
}

func sortedMillis(s []sample) []float64 {
	ms := make([]float64, len(s))
	for i, x := range s {
		ms[i] = float64(x.dur.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms
}
