package serve

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
	"dcfail/internal/predict"
	"dcfail/internal/report"
)

// Snapshot is one immutable epoch of the live analytics state: a
// consistent TraceIndex over every ticket folded so far, the mining
// index clipped to the same rows, and the cache of whatever sections
// were rendered from it. Readers that grab a Snapshot keep exactly this
// view no matter how many folds happen afterwards — all sections they
// render come from the same ticket prefix, which is what makes a
// mid-ingestion report self-consistent.
type Snapshot struct {
	epoch    uint64
	index    *fot.TraceIndex
	tickets  int
	foldedAt time.Time

	cache sectionCache

	mineIx  *mine.Index
	mineErr error
}

// Epoch returns the snapshot's fold generation (0 = empty, pre-ingest).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Tickets returns how many tickets this epoch contains.
func (s *Snapshot) Tickets() int { return s.tickets }

// Index returns the epoch's shared immutable trace index.
func (s *Snapshot) Index() *fot.TraceIndex { return s.index }

// FoldedAt returns when this epoch was published.
func (s *Snapshot) FoldedAt() time.Time { return s.foldedAt }

// MineIndex returns the epoch's §VII-B mining index: the fold extended
// the shared index by its batch, and this is the view of exactly the
// snapshot's rows.
func (s *Snapshot) MineIndex() (*mine.Index, error) { return s.mineIx, s.mineErr }

// sectionCache holds the rendered sections of one snapshot, filled on
// first use (most epochs are never rendered). It only ever grows; a
// report-view advance starts the next snapshot's cache from the entries
// the engine proved unchanged and abandons the rest with the snapshot,
// so nothing stale can outlive it. inflight dedups concurrent misses:
// the first reader to miss a section computes it, later readers wait on
// its channel (closed when the result lands in done) instead of racing
// duplicate renders — on a fresh epoch under a request stampede, N
// identical renders on one box otherwise multiply the epoch's cold cost
// by N (observed as a collapse in the chaos harness).
type sectionCache struct {
	mu       sync.Mutex
	done     map[string]core.SectionResult
	inflight map[string]chan struct{}
}

// init makes the maps on first use. Callers hold mu.
func (c *sectionCache) init() {
	if c.done == nil {
		c.done = make(map[string]core.SectionResult)
		c.inflight = make(map[string]chan struct{})
	}
}

// State is the incrementally updated analytics state behind the query
// daemon: an epoch-based copy-on-append snapshot model. One ingest
// goroutine folds new tickets into the next epoch with Fold; any number
// of readers take the current Snapshot with Current. The ticket backing
// array is append-only and every published index views a capped prefix
// of it, so folding never copies the history and never invalidates a
// reader's view.
//
// A fold does only work proportional to its batch (index, predictor and
// mining-index extension), so a ticket is visible as soon as it is
// folded. The report's section state costs O(state) to re-render and so
// runs on its own clock: the report view is the snapshot the section
// engine was last advanced to, and it moves — over however many epochs
// were folded meanwhile, in one engine call — only when a reader asks
// (AdvanceReportView, or RenderSections of a newer snapshot).
type State struct {
	census   *core.Census
	workers  int
	sections map[string]core.Section
	order    []string // section ids in print order

	foldMu sync.Mutex // serializes folds; Current never takes it
	all    []fot.Ticket
	mineB  mine.IndexBuilder
	folds  atomic.Uint64

	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}

	cur atomic.Pointer[Snapshot]

	hits   atomic.Uint64
	misses atomic.Uint64
	waits  atomic.Uint64

	// engine carries every section's incremental fold state. It is
	// advanced to the report view's snapshot under view.mu; renders of that
	// snapshot consult it before falling back to the full recompute.
	// incOff disables the delta path (benchmark baseline, operational
	// escape hatch).
	engine  *core.IncrementalEngine
	incOff  atomic.Bool
	secStat map[string]*sectionRenderCounters

	view viewClock

	// pred is the streaming failure predictor behind /predict and
	// /atrisk. It advances on the fold path — including the replica
	// FoldTo path — so every replica serving epoch N ranks hosts from
	// identical feature state.
	pred *predict.Engine
}

// reportView is the snapshot the section engine stands at, and when it
// got there.
type reportView struct {
	snap *Snapshot
	at   time.Time
}

// viewClock is the report's clock: the current view, how often it has
// moved, and since when it has been behind.
type viewClock struct {
	mu       sync.Mutex // serializes advances
	cur      atomic.Pointer[reportView]
	advances atomic.Uint64
	// behind is when the oldest epoch the view does not cover was folded
	// (unix nanos; 0 while the view is at Current).
	behind atomic.Int64
}

// publish installs v as the report view. Callers hold mu, or own the
// State in its constructor.
func (c *viewClock) publish(v *reportView) { c.cur.Store(v) }

// sectionRenderCounters tracks how one section's cache misses were
// served: from carried fold state, or by the full recompute.
type sectionRenderCounters struct {
	incremental atomic.Uint64
	fallback    atomic.Uint64
}

// SectionRenderStats is the exported snapshot of one section's counters.
type SectionRenderStats struct {
	Incremental uint64 `json:"incremental"`
	Fallback    uint64 `json:"fallback"`
}

// NewState builds an empty state (epoch 0) whose reports use the given
// census and fan section recomputation across workers goroutines (<= 0
// means one per CPU, as in core.Runner).
func NewState(census *core.Census, workers int) *State {
	st := &State{
		census:   census,
		workers:  workers,
		sections: make(map[string]core.Section),
		watchers: make(map[chan struct{}]struct{}),
	}
	for _, sec := range report.StandardSections(census) {
		st.sections[sec.ID] = sec
		st.order = append(st.order, sec.ID)
	}
	st.engine = core.NewIncrementalEngine(report.StandardIncrementalSections(census))
	st.secStat = make(map[string]*sectionRenderCounters, len(st.order))
	for _, id := range st.order {
		st.secStat[id] = &sectionRenderCounters{}
	}
	st.pred = predict.NewEngine(predict.Options{})
	empty := st.newSnapshot(nil, 0, nil, time.Time{})
	//lint:ignore epochpub epoch-0 bootstrap: the empty snapshot is installed before State escapes the constructor, so no reader can race it
	st.cur.Store(empty)
	st.view.publish(&reportView{snap: empty})
	return st
}

// SetPredictor replaces the streaming predictor's configuration. Must be
// called before the first fold (the daemon does it from New); a later
// call would discard folded feature state.
func (st *State) SetPredictor(opts predict.Options) {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	st.pred = predict.NewEngine(opts)
}

// Predictor exposes the streaming risk-scoring engine.
func (st *State) Predictor() *predict.Engine { return st.pred }

// SetIncremental toggles the delta render path. Disabled, every cache
// miss takes the full recompute — the benchmark baseline and the escape
// hatch if a section's fold state is ever suspect in production.
func (st *State) SetIncremental(enabled bool) { st.incOff.Store(!enabled) }

// newSnapshot indexes view as an incremental extension of the previous
// epoch's index: the columnar decomposition, the global time permutation
// and the mining index's posting lists of the shared ticket prefix carry
// over, so a fold pays for its batch, not the whole history. Callers
// hold foldMu (or own the State, in the constructor).
func (st *State) newSnapshot(prev *fot.TraceIndex, epoch uint64, view []fot.Ticket, at time.Time) *Snapshot {
	snap := &Snapshot{
		epoch:    epoch,
		index:    fot.ExtendTraceIndex(prev, fot.NewTrace(view)),
		tickets:  len(view),
		foldedAt: at,
	}
	snap.mineIx, snap.mineErr = st.mineB.Extend(snap.index.All())
	return snap
}

// Current returns the live snapshot. Wait-free; safe from any goroutine.
func (st *State) Current() *Snapshot { return st.cur.Load() }

// SectionIDs returns every section id in print order.
func (st *State) SectionIDs() []string { return st.order }

// Fold appends a batch of tickets and publishes the next epoch. The
// previous epoch's snapshot (and any reader holding it) is untouched:
// published ticket prefixes are immutable, so the new index shares the
// same backing array and only the new tail is ever written. Folding an
// empty batch returns the current snapshot without advancing the epoch,
// so idle ticks never invalidate the section cache.
func (st *State) Fold(batch []fot.Ticket, now time.Time) *Snapshot {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	prev := st.cur.Load()
	if len(batch) == 0 {
		return prev
	}
	return st.publish(batch, prev.epoch+1, now)
}

// FoldTo appends a batch and publishes it under an explicit epoch number
// — the replication path: a replica replaying a primary's epoch markers
// folds each marker's rows under the primary's epoch, so /report bodies
// and X-Epoch headers agree across the whole serving tier. The epoch must
// advance; an empty batch is allowed (a marker whose rows all arrived
// before a reconnect still has to move the epoch forward).
func (st *State) FoldTo(batch []fot.Ticket, epoch uint64, now time.Time) (*Snapshot, error) {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	prev := st.cur.Load()
	if epoch <= prev.epoch {
		return nil, fmt.Errorf("serve: FoldTo epoch %d not after current %d", epoch, prev.epoch)
	}
	return st.publish(batch, epoch, now), nil
}

// publish appends batch (possibly empty) and installs the new epoch.
// Everything here is O(batch): the section engine is not on this path.
// Callers hold foldMu.
func (st *State) publish(batch []fot.Ticket, epoch uint64, now time.Time) *Snapshot {
	prev := st.cur.Load()
	st.all = append(st.all, batch...)
	// Full slice expression: the snapshot's view can never observe a
	// later Fold's appends, even when they land in the same array.
	view := st.all[:len(st.all):len(st.all)]
	snap := st.newSnapshot(prev.index, epoch, view, now)
	st.pred.Advance(snap.index, epoch)
	st.folds.Add(1)
	st.cur.Store(snap)
	st.view.behind.CompareAndSwap(0, now.UnixNano())
	st.notifyWatchers()
	return snap
}

// ReportView returns the snapshot /report renders from — the newest one
// the section engine has been advanced to — and when it was advanced
// (zero for the initial empty view).
func (st *State) ReportView() (*Snapshot, time.Time) {
	v := st.view.cur.Load()
	return v.snap, v.at
}

// AdvanceReportView brings the report view up to Current and returns it.
// The engine folds every row published since the previous view in one
// call, whatever number of epochs they arrived in. A view already at
// Current is returned as it is, without touching at.
func (st *State) AdvanceReportView(now time.Time) *Snapshot {
	return st.advanceView(st.cur.Load(), now)
}

// advanceView moves the report view to snap unless it is already there
// or past it, and returns the view's snapshot.
func (st *State) advanceView(snap *Snapshot, now time.Time) *Snapshot {
	if old := st.view.cur.Load().snap; old.epoch >= snap.epoch {
		return old
	}
	st.view.mu.Lock()
	defer st.view.mu.Unlock()
	old := st.view.cur.Load().snap
	if old.epoch >= snap.epoch {
		return old
	}
	// Fold the rows the view has not seen into the engine, then start the
	// new view's cache from every rendered section they provably left
	// byte-identical: a warm advance re-renders only what changed.
	changed := st.engine.Advance(snap.index, snap.epoch)
	// snap has never been rendered — every render passes through here
	// first — so its cache is still unmade and the carried entries become
	// it.
	carried := make(map[string]core.SectionResult, len(st.order))
	old.cache.mu.Lock()
	for id, res := range old.cache.done {
		//lint:ignore maporder cache carry-over; per-key copy, order immaterial
		if !changed[id] {
			carried[id] = res
		}
	}
	old.cache.mu.Unlock()
	snap.cache.mu.Lock()
	snap.cache.done, snap.cache.inflight = carried, make(map[string]chan struct{})
	snap.cache.mu.Unlock()
	st.view.publish(&reportView{snap: snap, at: now})
	st.view.advances.Add(1)
	// The view is caught up unless a fold slipped in behind snap; that
	// fold either saw the zero and stamped itself, or is stamped here.
	st.view.behind.Store(0)
	if cur := st.cur.Load(); cur.epoch > snap.epoch {
		st.view.behind.CompareAndSwap(0, cur.foldedAt.UnixNano())
	}
	return snap
}

// ClockStats reports the two clocks side by side: lifetime folds
// (epochs published), lifetime report-view advances, the view's epoch,
// and how long the oldest epoch the view does not cover has been waiting
// (0 while the view is at Current).
func (st *State) ClockStats(now time.Time) (folds, advances, viewEpoch uint64, viewLag time.Duration) {
	if since := st.view.behind.Load(); since != 0 {
		viewLag = now.Sub(time.Unix(0, since))
	}
	return st.folds.Load(), st.view.advances.Load(), st.view.cur.Load().snap.epoch, viewLag
}

// Rows returns rows [from, to) of the append-only ticket log. Published
// prefixes are immutable, so the returned (capped) subslice stays valid
// and read-only no matter how many folds happen afterwards. to must not
// exceed the published row count (Current().Tickets()).
func (st *State) Rows(from, to int) ([]fot.Ticket, error) {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	if from < 0 || to < from || to > len(st.all) {
		return nil, fmt.Errorf("serve: rows [%d, %d) out of range (have %d)", from, to, len(st.all))
	}
	return st.all[from:to:to], nil
}

// Watch registers an epoch-advance signal: the returned capacity-1
// channel receives (coalesced, non-blocking) after every published fold.
// Pair with Unwatch.
func (st *State) Watch() chan struct{} {
	ch := make(chan struct{}, 1)
	st.watchMu.Lock()
	st.watchers[ch] = struct{}{}
	st.watchMu.Unlock()
	return ch
}

// Unwatch removes a channel registered with Watch.
func (st *State) Unwatch(ch chan struct{}) {
	st.watchMu.Lock()
	delete(st.watchers, ch)
	st.watchMu.Unlock()
}

func (st *State) notifyWatchers() {
	st.watchMu.Lock()
	for ch := range st.watchers {
		select {
		//lint:ignore maporder coalesced wake-up signals carry no payload; delivery order across watchers is immaterial
		case ch <- struct{}{}:
		default: // watcher already has a pending signal
		}
	}
	st.watchMu.Unlock()
}

// CacheStats reports the lifetime section-cache counters. hits are
// served straight from an epoch's done map; misses triggered a render;
// waits piggybacked on another request's in-flight render — not free
// like a hit (the caller blocks) and not a render like a miss, so they
// are counted apart from both.
func (st *State) CacheStats() (hits, misses, waits uint64) {
	return st.hits.Load(), st.misses.Load(), st.waits.Load()
}

// IncrementalStats reports, per section, how many cache misses were
// served from fold state vs the full recompute, plus the engine's health
// snapshot.
func (st *State) IncrementalStats() (map[string]SectionRenderStats, core.IncrementalEngineStats) {
	out := make(map[string]SectionRenderStats, len(st.secStat))
	for id, c := range st.secStat {
		//lint:ignore maporder snapshot copy into a map; order immaterial
		out[id] = SectionRenderStats{Incremental: c.incremental.Load(), Fallback: c.fallback.Load()}
	}
	return out, st.engine.Stats()
}

// MineRebuilds counts the folds whose batch could not extend the mining
// index in place (out-of-order rows) and rebuilt it instead.
func (st *State) MineRebuilds() uint64 { return st.mineB.Rebuilds() }

// RenderSections renders the requested section ids against one snapshot,
// serving repeats from the snapshot's cache and recomputing every missing
// section in parallel through core.Runner. A snapshot newer than the
// report view pulls the view (and the section engine) up to itself first;
// one the view has already left behind renders by full recompute.
// Concurrent misses of the same section are deduplicated: exactly one
// caller renders it, the rest wait for its result. Results come back in
// the requested order; an unknown id is an error.
func (st *State) RenderSections(snap *Snapshot, ids []string) ([]core.SectionResult, error) {
	st.advanceView(snap, snap.foldedAt)
	results := make([]core.SectionResult, len(ids))
	var missing []core.Section
	var missingAt []int
	type waiter struct {
		at int
		id string
		ch chan struct{}
	}
	var waits []waiter

	snap.cache.mu.Lock()
	snap.cache.init()
	for i, id := range ids {
		if res, ok := snap.cache.done[id]; ok {
			results[i] = res
			st.hits.Add(1)
			continue
		}
		if _, ok := st.sections[id]; !ok {
			snap.cache.mu.Unlock()
			return nil, fmt.Errorf("serve: unknown section %q", id)
		}
		if ch, ok := snap.cache.inflight[id]; ok {
			// Another request is already rendering this section. Not a
			// hit — the result isn't here yet and this caller blocks for
			// it — and not a miss — the renderer already counted the
			// compute. Counted as a wait.
			st.waits.Add(1)
			waits = append(waits, waiter{at: i, id: id, ch: ch})
			continue
		}
		st.misses.Add(1)
		snap.cache.inflight[id] = make(chan struct{})
		missing = append(missing, st.sections[id])
		missingAt = append(missingAt, i)
	}
	snap.cache.mu.Unlock()

	if len(missing) > 0 {
		// Delta path first: sections whose fold state matches this
		// snapshot's epoch render from carried state instead of rescanning
		// history. A stale snapshot, a broken section or a disabled engine
		// falls back to the full recompute transparently.
		rendered := make([]core.SectionResult, 0, len(missing))
		renderedAt := make([]int, 0, len(missing))
		var fallback []core.Section
		var fallbackAt []int
		for j, sec := range missing {
			if !st.incOff.Load() {
				var buf bytes.Buffer
				if ok, err := st.engine.TryRender(sec.ID, snap.epoch, snap.index, &buf); ok {
					rendered = append(rendered, core.SectionResult{ID: sec.ID, Text: buf.Bytes(), Err: err})
					renderedAt = append(renderedAt, missingAt[j])
					if c := st.secStat[sec.ID]; c != nil {
						c.incremental.Add(1)
					}
					continue
				}
			}
			if c := st.secStat[sec.ID]; c != nil {
				c.fallback.Add(1)
			}
			fallback = append(fallback, sec)
			fallbackAt = append(fallbackAt, missingAt[j])
		}
		if len(fallback) > 0 {
			bundle := core.Runner{Workers: st.workers}.RunAll(snap.index, fallback)
			rendered = append(rendered, bundle.Sections...)
			renderedAt = append(renderedAt, fallbackAt...)
		}
		snap.cache.mu.Lock()
		for j, res := range rendered {
			snap.cache.done[res.ID] = res
			results[renderedAt[j]] = res
			if ch, ok := snap.cache.inflight[res.ID]; ok {
				close(ch)
				delete(snap.cache.inflight, res.ID)
			}
		}
		snap.cache.mu.Unlock()
	}
	for _, w := range waits {
		<-w.ch
		snap.cache.mu.Lock()
		results[w.at] = snap.cache.done[w.id]
		snap.cache.mu.Unlock()
	}
	return results, nil
}
