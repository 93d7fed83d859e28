// Command bench is the pipeline benchmark: one invocation runs one
// workload of the whole path — agent report, durable ticket, folded
// epoch, routed report bytes — in one process, checks the outputs, and
// prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output: exactly these keys.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runRecord is one line of a -record file: the result plus what
// -compare needs to group it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultJSON
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "one of ingest_durable, query_hot, mixed_live, cold_batch")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the generated trace and of the query mix")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long the four stages measure, in total")
	traceFlag := fs.Int("trace", 0, "1 = traced run: record spans, run the layer probes, print the per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke mode: small profile, one set-up, short probes")
	fs.StringVar(&cfg.profile, "profile", "mid", "trace scale: small, mid or paper")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for temporary data and <workload>.trace.json")
	record := fs.String("record", "", "append this run's result to a file of runs, for -compare")
	compare := fs.Bool("compare", false, "compare two -record files: bench -compare parent.jsonl change.jsonl")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as this binary defines it, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *spec:
		return printSpec(w)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files of runs")
		}
		return compareFiles(w, fs.Arg(0), fs.Arg(1))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	cfg.trace = *traceFlag == 1

	rep, err := run(cfg)
	if err != nil {
		return err
	}
	res, err := emit(w, rep, cfg.trace)
	if err != nil {
		return err
	}
	if *record != "" {
		if err := appendRecord(*record, runRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, resultJSON: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// emit prints the run's notes and every metric by name with its unit,
// and returns the result line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one. A metric that was not
// measured is an error, never a silent zero.
func emit(w io.Writer, rep *runReport, traced bool) (resultJSON, error) {
	for _, line := range rep.notes {
		fmt.Fprintln(w, "#", line)
	}
	defs, values := endToEnd, rep.e2e
	if traced {
		// The traced run's end-to-end numbers are shown, not reported:
		// they carry the tracing overhead.
		for _, line := range formatMetrics(endToEnd, rep.e2e) {
			fmt.Fprintln(w, "#", line)
		}
		defs, values = perLayer(), rep.layer
	}
	res := resultJSON{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricJSON)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for _, line := range formatMetrics(defs, values) {
		fmt.Fprintln(w, line)
	}
	return res, nil
}

func formatMetrics(defs []metricDef, values map[string]float64) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, fmt.Sprintf("%-32s %16.4f %s", d.name, values[d.name], d.unit))
	}
	return out
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// specJSON mirrors BENCHMARK.json.
type specJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured window the driver passes as --seconds.
const runSeconds = 18

func buildSpec() specJSON {
	s := specJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadOrder {
		s.Workloads = append(s.Workloads, specWorkload{Name: name, Why: plans[name].why})
	}
	for _, d := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	for _, d := range perLayer() {
		s.PerLayer = append(s.PerLayer, specLayer{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return s
}

func printSpec(w io.Writer) error {
	data, err := json.MarshalIndent(buildSpec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
