package main

import (
	"errors"
	"testing"
	"time"

	"dcfail/internal/fot"
)

// fakeClock advances only when slept on or when an operation takes time.
type fakeClock struct{ now time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.now }, sleep: func(d time.Duration) { f.now = f.now.Add(d) }}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	sch := schedule{start: fc.now, every: 10 * time.Millisecond}
	// Operation 1 stalls for 35 ms: operations 2, 3 and 4 are sent late,
	// at once, and their latency includes the wait the stall imposed.
	cost := []time.Duration{2, 35, 2, 2, 2, 2}
	fail := errors.New("refused")
	log := openLoop(fc.clock(), sch, len(cost), func(i int) error {
		fc.now = fc.now.Add(cost[i] * time.Millisecond)
		if i == 4 {
			return fail
		}
		return nil
	})
	wantSent := []time.Duration{0, 10, 45, 47, 49, 51}
	wantDone := []time.Duration{2, 45, 47, 49, 51, 53}
	for i := range cost {
		if got := log.due[i].Sub(sch.start); got != time.Duration(i)*10*time.Millisecond {
			t.Errorf("op %d due at +%v", i, got)
		}
		if got := log.sent[i].Sub(sch.start); got != wantSent[i]*time.Millisecond {
			t.Errorf("op %d sent at +%v, want +%vms", i, got, wantSent[i])
		}
		if got := log.done[i].Sub(sch.start); got != wantDone[i]*time.Millisecond {
			t.Errorf("op %d done at +%v, want +%vms", i, got, wantDone[i])
		}
		if log.sent[i].Before(log.due[i]) {
			t.Errorf("op %d sent before it was due", i)
		}
	}
	late := log.lateness().sorted()
	if late[len(late)-1] != int64(25*time.Millisecond) || late[0] != 0 {
		t.Errorf("lateness = %v, want 0 … 25ms", late)
	}
	lat := log.latency()
	if lat.failed != 1 || lat.attempted() != 6 {
		t.Fatalf("latency: %d failed of %d, want 1 of 6", lat.failed, lat.attempted())
	}
	// Latencies from the due time: 2, 35, 27, 19, (failed), 3.
	got := lat.sorted()
	want := []time.Duration{2, 3, 19, 27, 35}
	for i := range want {
		if got[i] != int64(want[i]*time.Millisecond) {
			t.Errorf("latency[%d] = %v, want %vms", i, time.Duration(got[i]), want[i])
		}
	}
}

func TestMaxLoadIsCappedAtTwo(t *testing.T) {
	for nproc, want := range map[int]int{1: 1, 2: 2, 3: 2, 64: 2} {
		if got := maxLoad(nproc); got != want {
			t.Errorf("maxLoad(%d) = %d, want %d", nproc, got, want)
		}
	}
}

func TestQueryMixIsDeterministicAndWeighted(t *testing.T) {
	sections := []string{"table1", "table2", "fig2"}
	tickets := []fot.Ticket{{HostID: 7}, {HostID: 7}, {HostID: 7}, {HostID: 9}}
	a, b := newQueryMix(5, sections, tickets), newQueryMix(5, sections, tickets)
	counts := make([]int, numClasses)
	const n = 20000
	var firstSections []string
	for i := 0; i < n; i++ {
		ca, pa := a.next()
		cb, pb := b.next()
		if ca != cb || pa != pb {
			t.Fatalf("request %d differs between equal seeds: %s vs %s", i, pa, pb)
		}
		counts[ca]++
		if ca == classSection && len(firstSections) < 4 {
			firstSections = append(firstSections, pa)
		}
	}
	for class, share := range classShares {
		got := 100 * float64(counts[class]) / n
		if got < float64(share)-1.5 || got > float64(share)+1.5 {
			t.Errorf("class %s is %.1f%% of the mix, want %d%%", classNames[class], got, share)
		}
	}
	want := []string{"/report/table1", "/report/table2", "/report/fig2", "/report/table1"}
	for i := range want {
		if firstSections[i] != want[i] {
			t.Errorf("section request %d = %s, want %s (cycling every id)", i, firstSections[i], want[i])
		}
	}
	if c, _ := newQueryMix(6, sections, tickets).next(); c < 0 || c >= numClasses {
		t.Errorf("class %d out of range", c)
	}
}

func TestVisibleAtFindsTheFirstCoveringEpoch(t *testing.T) {
	t0 := time.Unix(0, 0)
	recs := []epochRec{{t0.Add(1), 10}, {t0.Add(2), 10}, {t0.Add(3), 25}, {t0.Add(4), 40}}
	for _, c := range []struct {
		row  int
		want int64
		ok   bool
	}{{0, 1, true}, {9, 1, true}, {10, 3, true}, {24, 3, true}, {25, 4, true}, {39, 4, true}, {40, 0, false}} {
		at, ok := visibleAt(recs, c.row)
		if ok != c.ok || (ok && at.Sub(t0) != time.Duration(c.want)) {
			t.Errorf("visibleAt(row %d) = +%d %v, want +%d %v", c.row, at.Sub(t0), ok, c.want, c.ok)
		}
	}
}
