package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {0, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The tail percentile reported is the highest one with at least ten
// samples beyond it.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		pick float64
	}{
		{100000, 99.9, 99.9}, {10000, 99.9, 99.9}, {9999, 99.9, 99},
		{1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {199, 99, 90},
		{100, 99, 90}, {99, 99, 75}, {40, 99, 75}, {39, 99, 50}, {1, 99, 50},
		{100000, 95, 95},
	} {
		if got := supportedTail(c.n, c.want); got != c.pick {
			t.Errorf("supportedTail(n=%d, p%g) = p%g, want p%g", c.n, c.want, got, c.pick)
		}
	}
	sorted := make([]int64, 500)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, p := tail(sorted, 99); p != 95 || v != 475 {
		t.Errorf("tail of 500 samples = %d at p%g, want 475 at p95", v, p)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance check computes.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedians(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of three = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := medianInt([]int64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("medianInt = %g, want 2.5", got)
	}
}

// A failed operation is counted against the attempts and contributes no
// latency: failures can only ever make the numbers look worse.
func TestFailuresCountAgainstAttempts(t *testing.T) {
	var s samples
	s.add(2 * time.Millisecond)
	s.fail()
	s.add(1 * time.Millisecond)
	s.fail()
	var other samples
	other.add(3 * time.Millisecond)
	other.fail()
	s.merge(&other)
	if s.attempted() != 6 || s.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3", s.attempted(), s.failed)
	}
	got := s.sorted()
	if len(got) != 3 || got[0] != int64(time.Millisecond) || got[2] != int64(3*time.Millisecond) {
		t.Errorf("sorted latencies = %v, want the three successes ascending", got)
	}
}
