package main

import "testing"

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same runs", steady, steady, "lower", 0.10, verdictWithin},
		{"5% slower inside a 10% bound", steady, scale(steady, 1.05), "lower", 0.10, verdictWithin},
		{"20% slower", steady, scale(steady, 1.20), "lower", 0.10, verdictWorse},
		{"20% faster", steady, scale(steady, 0.80), "lower", 0.10, verdictBetter},
		{"20% more throughput", steady, scale(steady, 1.20), "higher", 0.10, verdictBetter},
		{"20% less throughput", steady, scale(steady, 0.80), "higher", 0.10, verdictWorse},
		{"spread wider than the bound", noisy, scale(noisy, 1.05), "lower", 0.10, verdictUnresolved},
		{"noisy, yet every run beats every parent run", noisy, scale(noisy, 0.3), "lower", 0.10, verdictBetter},
		{"noisy, and every run is worse", noisy, scale(noisy, 3), "lower", 0.10, verdictWorse},
		{"a gain smaller than the parent's own spread", steady, scale(steady, 0.995), "lower", 0.10, verdictWithin},
	} {
		if got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
