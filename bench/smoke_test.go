package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs each workload once in -quick mode, traced,
// through every correctness gate, and checks that both result lines —
// the end-to-end one and the per-layer one — carry exactly the metrics
// BENCHMARK.json names, each once, finite, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stands the whole pipeline up four times")
	}
	for _, workload := range workloadOrder {
		t.Run(workload, func(t *testing.T) {
			out := t.TempDir()
			rep, err := run(config{workload: workload, seed: 42, seconds: 1, trace: true, quick: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			for _, traced := range []bool{false, true} {
				defs := endToEnd
				if traced {
					defs = perLayer()
				}
				var buf bytes.Buffer
				res, err := emit(&buf, rep, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: correct=%v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want a finite value in %s", traced, d.name, m, ok, d.unit)
					}
					lines := 0
					for _, line := range strings.Split(buf.String(), "\n") {
						if f := strings.Fields(line); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
							lines++
						}
					}
					if lines != 1 {
						t.Errorf("traced=%v: metric %s printed %d times, want once", traced, d.name, lines)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want above zero", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			}
			for _, name := range []string{"core.rebuilds", "core.broken", "fmsnet.sub_dropped", "router.shed"} {
				if rep.layer[name] != 0 {
					t.Errorf("%s = %g, want 0", name, rep.layer[name])
				}
			}
			if _, err := os.Stat(out + "/" + workload + ".trace.json"); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
			if left, _ := os.ReadDir(out); len(left) != 1 {
				t.Errorf("run left %d entries in its output directory, want only the span file", len(left))
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheBinary: the workloads, metrics, units and
// bounds in BENCHMARK.json are the ones this binary prints.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk specJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `bench -spec`; regenerate it.\n on disk: %+v\n binary:  %+v", onDisk, want)
	}
	if n := len(endToEnd); n != 13 {
		t.Errorf("%d end-to-end metrics, want the issue's 14 less the demoted ack_p99_us", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, name := range workloadOrder {
		p := plans[name]
		if sum := p.ingest + p.live + p.query + p.cold; math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s spends %g of the run, want 1", name, sum)
		}
		if len(p.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 fit", name, len(p.why))
		}
	}
}

// TestUnknownWorkloadAndBadFlags: a mistyped invocation fails before
// anything is stood up.
func TestUnknownWorkloadAndBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch", "-quick"},
		{"-workload", "query_hot", "-trace", "2"},
		{"-workload", "query_hot", "-seconds", "0"},
		{"-compare", "only-one-file"},
	} {
		var buf bytes.Buffer
		if err := mainErr(append(args, "-out", t.TempDir()), &buf); err == nil {
			t.Errorf("bench %v succeeded, want an error", args)
		}
	}
}
