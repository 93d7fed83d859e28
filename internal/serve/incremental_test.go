package serve

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"dcfail/internal/fot"
)

// timeSorted returns the small-world tickets in global (time, id) order —
// the append order a live source delivers, which keeps the incremental
// engine on its delta fast path (no rebuilds).
func timeSorted(t *testing.T) ([]fot.Ticket, *State) {
	t.Helper()
	trace, census := smallWorld(t)
	tickets := append([]fot.Ticket(nil), trace.Tickets...)
	slices.SortFunc(tickets, func(a, b fot.Ticket) int {
		if !a.Time.Equal(b.Time) {
			return a.Time.Compare(b.Time)
		}
		if a.ID < b.ID {
			return -1
		} else if a.ID > b.ID {
			return 1
		}
		return 0
	})
	return tickets, NewState(census, 0)
}

// TestIncrementalRenderAccounting pins the serve wiring of the delta
// path: misses on the report view render from fold state (incremental
// counter advances, fallback stays zero) — also after later folds, which
// no longer move the engine — a snapshot the view has left behind falls
// back to the full recompute, and disabling the engine routes everything
// to the fallback path.
func TestIncrementalRenderAccounting(t *testing.T) {
	tickets, st := timeSorted(t)
	half := len(tickets) / 2
	st.Fold(tickets[:half], time.Now())

	snap := st.Current()
	if _, err := st.RenderSections(snap, []string{"table1", "fig5"}); err != nil {
		t.Fatal(err)
	}
	sec, eng := st.IncrementalStats()
	if got := sec["table1"]; got.Incremental != 1 || got.Fallback != 0 {
		t.Fatalf("table1 after warm render = %+v, want incremental=1 fallback=0", got)
	}
	if got := sec["fig5"]; got.Incremental != 1 || got.Fallback != 0 {
		t.Fatalf("fig5 after warm render = %+v, want incremental=1 fallback=0", got)
	}
	if eng.Rebuilds != 0 || len(eng.Broken) != 0 {
		t.Fatalf("engine stats = %+v, want no rebuilds, nothing broken", eng)
	}

	// A fold alone leaves the engine at the view: the old snapshot still
	// renders from fold state.
	st.Fold(tickets[half:], time.Now())
	if view, _ := st.ReportView(); view != snap {
		t.Fatalf("a fold moved the report view to epoch %d", view.Epoch())
	}
	if _, err := st.RenderSections(snap, []string{"fig2"}); err != nil {
		t.Fatal(err)
	}
	sec, _ = st.IncrementalStats()
	if got := sec["fig2"]; got.Incremental != 1 || got.Fallback != 0 {
		t.Fatalf("fig2 on the view after a fold = %+v, want incremental=1 fallback=0", got)
	}

	// A reader holding the old snapshot after the view advanced: the
	// engine has moved on, so an uncached section on that snapshot must
	// fall back — and still render the old epoch's bytes.
	if got := st.AdvanceReportView(time.Now()); got != st.Current() {
		t.Fatalf("AdvanceReportView stopped at epoch %d, Current is %d", got.Epoch(), st.Current().Epoch())
	}
	res, err := st.RenderSections(snap, []string{"table2"})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	sec, _ = st.IncrementalStats()
	if got := sec["table2"]; got.Incremental != 0 || got.Fallback != 1 {
		t.Fatalf("table2 on stale snapshot = %+v, want incremental=0 fallback=1", got)
	}

	// Disabled engine: a current-epoch miss takes the full path too.
	st.SetIncremental(false)
	if _, err := st.RenderSections(st.Current(), []string{"table2"}); err != nil {
		t.Fatal(err)
	}
	sec, _ = st.IncrementalStats()
	if got := sec["table2"]; got.Fallback != 2 {
		t.Fatalf("table2 with engine disabled = %+v, want fallback=2", got)
	}
	st.SetIncremental(true)

	// Re-enabled engine serves the next current-epoch miss from fold state.
	if _, err := st.RenderSections(st.Current(), []string{"fig7"}); err != nil {
		t.Fatal(err)
	}
	sec, _ = st.IncrementalStats()
	if got := sec["fig7"]; got.Incremental != 1 || got.Fallback != 0 {
		t.Fatalf("fig7 after re-enable = %+v, want incremental=1 fallback=0", got)
	}
}

// TestWarmEpochCarriesUnchangedSections pins the fold-time cache
// carry-over: advancing the epoch with rows that cannot change a cached
// section's bytes (an empty replication marker) re-publishes the cached
// render in the new snapshot — no miss, no re-render.
func TestWarmEpochCarriesUnchangedSections(t *testing.T) {
	tickets, st := timeSorted(t)
	st.Fold(tickets, time.Now())
	snap := st.Current()
	first, err := st.RenderSections(snap, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	_, misses0, _ := st.CacheStats()

	// Empty epoch marker (replication path): nothing changed, so the new
	// snapshot's cache must already hold table1.
	if _, err := st.FoldTo(nil, snap.Epoch()+1, time.Now()); err != nil {
		t.Fatal(err)
	}
	snap2 := st.Current()
	if snap2.Epoch() != snap.Epoch()+1 {
		t.Fatalf("epoch = %d, want %d", snap2.Epoch(), snap.Epoch()+1)
	}
	again, err := st.RenderSections(snap2, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first[0].Text, again[0].Text) {
		t.Fatal("carried section bytes differ across an empty epoch advance")
	}
	hits, misses, _ := st.CacheStats()
	if misses != misses0 {
		t.Fatalf("misses advanced %d -> %d across an unchanged-epoch render, want a carried cache hit", misses0, misses)
	}
	if hits == 0 {
		t.Fatal("expected the carried section to count as a cache hit")
	}
}
