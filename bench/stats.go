package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one latency population. Values are nanoseconds;
// failed operations carry no latency and are only counted, so a failure
// can never improve a percentile.
type samples struct {
	ns     []int64
	at     []int64 // completion times (UnixNano) of the samples added with addAt
	failed int
}

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *samples) addAt(d time.Duration, at time.Time) {
	s.ns = append(s.ns, int64(d))
	s.at = append(s.at, at.UnixNano())
}

// sliced cuts [from, to) into k equal time slices and applies f to each
// slice's ascending latencies and duration.
func (s *samples) sliced(from, to time.Time, k int, f func(sorted []int64, dur time.Duration) float64) []float64 {
	lo, width := from.UnixNano(), to.Sub(from).Nanoseconds()/int64(k)
	parts := make([][]int64, k)
	for i, at := range s.at {
		j := int((at - lo) / width)
		if j < 0 {
			j = 0
		}
		if j >= k {
			j = k - 1
		}
		parts[j] = append(parts[j], s.ns[i])
	}
	vals := make([]float64, k)
	for j, p := range parts {
		sort.Slice(p, func(a, b int) bool { return p[a] < p[b] })
		vals[j] = f(p, time.Duration(width))
	}
	return vals
}
func (s *samples) fail()          { s.failed++ }
func (s *samples) attempted() int { return len(s.ns) + s.failed }

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.at = append(s.at, o.at...)
	s.failed += o.failed
}

func (s *samples) sorted() []int64 {
	out := append([]int64(nil), s.ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is where a tail percentile falls back to when the sample
// is too small to support it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail picks the highest ladder percentile that is no higher
// than want and still has at least ten samples beyond it — the
// choosing-metrics rule. A p99 over 400 samples is four samples of
// noise; this reports p95 of them instead, and says so.
func supportedTail(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			return p
		}
	}
	return 50
}

// tail returns the supported tail percentile of an ascending slice and
// which percentile that was.
func tail(sorted []int64, want float64) (int64, float64) {
	p := supportedTail(len(sorted), want)
	return percentile(sorted, p), p
}

func medianInt(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), because that is what the acceptance
// check computes: -compare must agree with it to the digit.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
