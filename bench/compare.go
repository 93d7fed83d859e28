package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// The four outcomes of comparing a change against its parent on one
// (metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the change's runs b with the parent's runs a. worse by
// more than the bound is a regression; a gain is claimed only when the
// change wins nine tenths of the pairs (runs are paired in file order,
// ties count for neither) and the medians differ by more than the
// parent's own interquartile distance. Where either side's spread is
// wider than the bound the pair is unresolved — not unchanged — unless
// every run of one side beats every run of the other.
func judge(a, b []float64, better string, bound float64) string {
	sign := 1.0 // positive delta = worse
	if better == "higher" {
		sign = -1
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	if medA == 0 {
		return verdictUnresolved
	}
	delta := sign * (medB - medA) / math.Abs(medA)
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	if spread(a) > bound || spread(b) > bound {
		switch {
		case allBetter:
			return verdictBetter
		case allWorse && delta > bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	if delta > bound {
		return verdictWorse
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			pairs++
			if sign*(b[i]-a[i]) < 0 {
				wins++
			}
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(medB-medA) > q3-q1 {
		return verdictBetter
	}
	return verdictWithin
}

// readRuns loads a -record file and groups the untraced runs' values by
// workload and metric, in file order.
func readRuns(path string) (map[string]map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	failed := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		failed += rec.Failed
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, failed, sc.Err()
}

// compareFiles prints, for every end-to-end metric on every workload,
// both sides' medians and quartiles and the verdict, and fails if any
// pair is worse or any operation failed.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, parentFailed, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, changeFailed, err := readRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-22s %5s  %-38s %-38s %7s  %s\n",
		"workload", "metric", "bound", "parent median [q1 q3] n", "change median [q1 q3] n", "change", "verdict")
	worse := 0
	for _, wl := range workloadOrder {
		for _, d := range endToEnd {
			a, b := parent[wl][d.name], change[wl][d.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict := judge(a, b, d.better, d.bound)
			if verdict == verdictWorse {
				worse++
			}
			_, medA, _ := quartiles(a)
			_, medB, _ := quartiles(b)
			fmt.Fprintf(w, "%-15s %-22s %4.0f%%  %-38s %-38s %+6.1f%%  %s\n",
				wl, d.name, 100*d.bound, describe(a), describe(b), 100*(medB-medA)/math.Abs(medA), verdict)
		}
	}
	fmt.Fprintf(w, "failed operations: parent %d, change %d\n", parentFailed, changeFailed)
	if worse > 0 || changeFailed > parentFailed {
		return fmt.Errorf("%d pairs worse than their bound, %d more failed operations than the parent", worse, changeFailed-parentFailed)
	}
	return nil
}

func describe(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", q2, q1, q3, len(v))
}
