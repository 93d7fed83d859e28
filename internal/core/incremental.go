package core

import (
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dcfail/internal/fot"
)

// SectionState is one section's carried fold state: an opaque value owned
// by the IncrementalEngine, produced by that section's Update and read by
// its RenderState. States must be pointers (or nil): the engine detects
// "nothing changed" by interface identity between Update's input and
// output.
type SectionState any

// IncrementalSection is the delta path of one report section. The
// full-recompute core.Section stays the golden reference; an
// IncrementalSection reproduces its bytes from carried state instead of
// rescanning history on every epoch.
//
// Contract (DESIGN.md §9):
//
//   - Update folds the appended rows into the next state. prev is nil on
//     the first fold and after an engine rebuild; newRows is exactly the
//     appended row range, pre-sorted by the global (time, id) order, and
//     must not be retained or mutated.
//   - Update must not write through prev. It either returns prev itself
//     (identity signals "no output-relevant change"; the engine may then
//     carry the previous epoch's rendered bytes forward) or a freshly
//     allocated top-level state. The fresh state may absorb prev's
//     containers — ownership hand-off: once Update returns, the engine
//     never renders or folds the handed-off prev again.
//   - RenderState is a pure function of (state, ix): it must produce
//     bytes identical to the section's full-recompute render over the
//     same ticket prefix, including error values and any partial output
//     written before an error.
type IncrementalSection struct {
	ID          string
	Update      func(prev SectionState, ix *fot.TraceIndex, newRows []int32) (SectionState, error)
	RenderState func(state SectionState, ix *fot.TraceIndex, w io.Writer) error
}

// IncrementalEngineStats is a point-in-time snapshot of engine health.
type IncrementalEngineStats struct {
	Epoch    uint64
	Rows     int
	Rebuilds uint64
	Broken   []string // sections whose Update failed; full fallback
}

// IncrementalEngine carries every section's fold state across epochs.
// Advance (one caller at a time — serve's report-view advance) consumes
// appended row ranges, however many epochs they were published in;
// TryRender serves section renders from state under a read lock, so
// renders of the engine's epoch never race the next Advance's Update.
//
// The engine assumes rows are appended in global (time, id) order — the
// invariant live sources provide. When a batch violates it (out-of-order
// ingest after a reattach, a backfill), the engine transparently rebuilds
// every state from the full permutation: correctness never depends on
// arrival order, only the delta fast path does.
type IncrementalEngine struct {
	mu       sync.RWMutex
	sections []IncrementalSection
	byID     map[string]int
	states   []SectionState
	broken   []bool
	epoch    uint64
	rows     int
	lastT    int64 // (time, id) key of the last folded row
	lastID   uint64
	haveLast bool
	rebuilds uint64
}

// NewIncrementalEngine builds an engine over the given sections with no
// folded rows (epoch 0).
func NewIncrementalEngine(sections []IncrementalSection) *IncrementalEngine {
	e := &IncrementalEngine{
		sections: sections,
		byID:     make(map[string]int, len(sections)),
		states:   make([]SectionState, len(sections)),
		broken:   make([]bool, len(sections)),
	}
	for i, sec := range sections {
		e.byID[sec.ID] = i
	}
	return e
}

// Advance folds the rows appended since the previous call — rows
// [watermark, ix.Len()) — into every section's state and tags the result
// with epoch. It returns the set of section ids whose rendered output may
// differ from the previous epoch; ids absent from the map are guaranteed
// byte-identical, so cached renders may be carried forward. Advance must
// be externally serialized with respect to itself (serve's view mutex).
func (e *IncrementalEngine) Advance(ix *fot.TraceIndex, epoch uint64) map[string]bool {
	cols := ix.Cols()
	n := ix.Len()

	e.mu.Lock()
	defer e.mu.Unlock()

	changed := make(map[string]bool)
	if n < e.rows {
		// The index shrank: not an extension of what we folded. Rebuild.
		e.rebuildLocked(ix, epoch, changed)
		return changed
	}
	newRows := make([]int32, 0, n-e.rows)
	for r := e.rows; r < n; r++ {
		newRows = append(newRows, int32(r))
	}
	if len(newRows) == 0 {
		// Epoch marker with no rows (replication): every section's output
		// is unchanged except those already broken, which re-render via
		// the full path against an index holding the same rows — still
		// byte-identical, so nothing needs to change hands.
		e.epoch = epoch
		return changed
	}
	slices.SortFunc(newRows, func(a, b int32) int {
		if cols.TimeNS[a] != cols.TimeNS[b] {
			if cols.TimeNS[a] < cols.TimeNS[b] {
				return -1
			}
			return 1
		}
		if cols.ID[a] != cols.ID[b] {
			if cols.ID[a] < cols.ID[b] {
				return -1
			}
			return 1
		}
		return 0
	})
	first := newRows[0]
	if e.haveLast && (cols.TimeNS[first] < e.lastT ||
		(cols.TimeNS[first] == e.lastT && cols.ID[first] <= e.lastID)) {
		// Batch starts at or before the folded history: out-of-order
		// append. Delta folding assumed monotone time; start over.
		e.rebuildLocked(ix, epoch, changed)
		return changed
	}
	e.foldLocked(ix, newRows, changed)
	last := newRows[len(newRows)-1]
	e.lastT, e.lastID, e.haveLast = cols.TimeNS[last], cols.ID[last], true
	e.rows = n
	e.epoch = epoch
	return changed
}

// parallelFoldRows is the delta size from which foldLocked spreads the
// sections' Updates over the CPUs. A live fold's few hundred rows cost
// each section microseconds, less than a hand-off; a catch-up over a
// whole trace (cold start, boot prefix, a report view that stood through
// a backlog) costs tens of milliseconds per section.
const parallelFoldRows = 4096

// foldLocked runs every live section's Update over rows. Updates are
// independent — each reads the shared index and its own state — so a
// large delta runs them concurrently; results are applied in section
// order either way.
func (e *IncrementalEngine) foldLocked(ix *fot.TraceIndex, rows []int32, changed map[string]bool) {
	type result struct {
		next SectionState
		err  error
	}
	results := make([]result, len(e.sections))
	update := func(i int) {
		if !e.broken[i] {
			results[i].next, results[i].err = e.sections[i].Update(e.states[i], ix, rows)
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(e.sections)); workers > 1 && len(rows) >= parallelFoldRows {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(e.sections); i = int(next.Add(1)) - 1 {
					update(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range e.sections {
			update(i)
		}
	}
	for i, sec := range e.sections {
		if e.broken[i] {
			// Full-fallback sections re-render from the new index.
			changed[sec.ID] = true
			continue
		}
		next, err := results[i].next, results[i].err
		if err != nil {
			e.states[i] = nil
			e.broken[i] = true
			changed[sec.ID] = true
			continue
		}
		if next != e.states[i] {
			changed[sec.ID] = true
		}
		e.states[i] = next
	}
}

// rebuildLocked discards every state and refolds the whole permutation.
func (e *IncrementalEngine) rebuildLocked(ix *fot.TraceIndex, epoch uint64, changed map[string]bool) {
	e.rebuilds++
	perm := ix.TimePerm()
	for i := range e.states {
		e.states[i] = nil
		e.broken[i] = false
	}
	e.foldLocked(ix, perm, changed)
	// A rebuild invalidates identity-based carry for every section.
	for _, sec := range e.sections {
		changed[sec.ID] = true
	}
	e.rows = ix.Len()
	e.epoch = epoch
	if len(perm) > 0 {
		last := perm[len(perm)-1]
		cols := ix.Cols()
		e.lastT, e.lastID, e.haveLast = cols.TimeNS[last], cols.ID[last], true
	} else {
		e.haveLast = false
	}
}

// TryRender renders section id from carried state, holding the read lock
// so the next fold's Update cannot race it. It reports ok=false — without
// writing anything — when the state cannot serve this request: unknown
// id, an epoch other than the engine's current one (a reader holding an
// older snapshot), or a section whose Update failed. The caller then
// falls back to the full-recompute render.
func (e *IncrementalEngine) TryRender(id string, epoch uint64, ix *fot.TraceIndex, w io.Writer) (ok bool, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i, known := e.byID[id]
	if !known || e.broken[i] || epoch != e.epoch {
		return false, nil
	}
	return true, e.sections[i].RenderState(e.states[i], ix, w)
}

// Stats snapshots the engine's epoch, row watermark, rebuild count and
// broken-section list.
func (e *IncrementalEngine) Stats() IncrementalEngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := IncrementalEngineStats{Epoch: e.epoch, Rows: e.rows, Rebuilds: e.rebuilds}
	for i, sec := range e.sections {
		if e.broken[i] {
			st.Broken = append(st.Broken, sec.ID)
		}
	}
	return st
}
