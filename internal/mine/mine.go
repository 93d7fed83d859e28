// Package mine implements the FOT correlation-mining tool the paper calls
// for in §VII-B: the production FMS is "stateless" — every ticket stands
// alone, so operators rediscover the same chronic faults for a year (the
// BBU case) and treat batch members as 290k independent incidents. The
// paper proposes a data-mining layer that, for any ticket, surfaces the
// history of the component, the server and its cohort, plus fleet-wide
// correlation rules; and §VII-A mentions an early-warning predictor the
// operators ignored. This package builds all three:
//
//   - Index / Contextualize: per-ticket related-information report
//     (server history, slot repeat chain, batch membership, twins)
//   - MineRules: association rules between failure types that co-occur on
//     the same server within a time window (Table VI generalized)
//   - EvaluateWarningPredictor: how well predictive warning types
//     (SMARTFail, DIMMCE, ...) anticipate fatal failures of the same
//     component instance, with precision / recall / lead time
package mine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/fot"
)

// slotKey identifies one component instance.
type slotKey struct {
	host uint64
	dev  fot.Component
	slot string
}

// Index answers Contextualize and HostTickets over one trace. It is a
// read-only view of n rows over posting lists that an IndexBuilder may
// keep appending to for later views; safe for concurrent reads.
type Index struct {
	trace *fot.Trace
	n     int
	p     *postings
}

// postings are the per-host, per-slot and per-(device, type) row lists,
// each in detection-time order. They only ever grow by rows that sort
// after everything already listed, so every view of fewer rows is a
// prefix of each list: rows >= n sit in a list's ascending tail and a
// view clips them off.
type postings struct {
	mu         sync.RWMutex
	rows       int
	lastTime   time.Time // detection time of the newest listed row
	byID       map[uint64]int
	byHost     map[uint64][]int
	bySlot     map[slotKey][]int
	byTypeTime map[[2]string][]int
	err        error // duplicate ticket id; every longer trace has it too
}

// add lists tr's rows [p.rows, tr.Len()) in stable detection-time
// order — the order NewIndex has always listed a whole trace in.
func (p *postings) add(tr *fot.Trace) {
	order := make([]int, 0, tr.Len()-p.rows)
	for i := p.rows; i < tr.Len(); i++ {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return tr.Tickets[a].Time.Compare(tr.Tickets[b].Time)
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, i := range order {
		t := &tr.Tickets[i]
		if _, dup := p.byID[t.ID]; dup {
			if p.err == nil {
				p.err = fmt.Errorf("mine: duplicate ticket id %d", t.ID)
			}
			continue
		}
		p.byID[t.ID] = i
		p.byHost[t.HostID] = append(p.byHost[t.HostID], i)
		sk := slotKey{t.HostID, t.Device, t.Slot}
		p.bySlot[sk] = append(p.bySlot[sk], i)
		tk := [2]string{t.Device.String(), t.Type}
		p.byTypeTime[tk] = append(p.byTypeTime[tk], i)
	}
	if len(order) > 0 {
		p.lastTime = tr.Tickets[order[len(order)-1]].Time
	}
	p.rows = tr.Len()
}

// clip drops the rows a view of n rows does not cover.
func clip(list []int, n int) []int {
	if len(list) == 0 || list[len(list)-1] < n {
		return list
	}
	return list[:sort.Search(len(list), func(i int) bool { return list[i] >= n })]
}

// rowsOf reads one posting list and clips it to the view.
func rowsOf[K comparable](ix *Index, lists map[K][]int, key K) []int {
	ix.p.mu.RLock()
	list := lists[key]
	ix.p.mu.RUnlock()
	return clip(list, ix.n)
}

func (ix *Index) rowOf(id uint64) (int, bool) {
	ix.p.mu.RLock()
	row, ok := ix.p.byID[id]
	ix.p.mu.RUnlock()
	return row, ok && row < ix.n
}

// IndexBuilder keeps one mining index current over an append-only
// trace: each Extend lists only the rows appended since the last one and
// returns a view of exactly the trace it was given, equal to NewIndex
// over it. Extend calls must be serialized; the views are not tied to
// that lock.
type IndexBuilder struct {
	p        *postings
	rebuilds atomic.Uint64
}

// Extend returns the index over tr, which must hold the previously
// extended trace as a prefix. Appended rows older than a listed one (a
// backfill, an out-of-order reattach) cannot be appended to time-ordered
// lists: the builder then starts new lists over the whole trace — views
// handed out before keep the old ones — and counts a rebuild.
func (b *IndexBuilder) Extend(tr *fot.Trace) (*Index, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("mine: empty trace")
	}
	if b.p != nil && !b.inOrder(tr) {
		b.p = nil
		b.rebuilds.Add(1)
	}
	if b.p == nil {
		b.p = &postings{
			byID:       make(map[uint64]int, tr.Len()),
			byHost:     make(map[uint64][]int),
			bySlot:     make(map[slotKey][]int),
			byTypeTime: make(map[[2]string][]int),
		}
	}
	b.p.add(tr)
	if b.p.err != nil {
		return nil, b.p.err
	}
	return &Index{trace: tr, n: tr.Len(), p: b.p}, nil
}

// inOrder reports whether tr extends the listed rows without any
// appended row sorting before one of them.
func (b *IndexBuilder) inOrder(tr *fot.Trace) bool {
	if tr.Len() < b.p.rows {
		return false
	}
	for i := b.p.rows; i < tr.Len(); i++ {
		if tr.Tickets[i].Time.Before(b.p.lastTime) {
			return false
		}
	}
	return true
}

// Rebuilds counts the Extend calls that could not append.
func (b *IndexBuilder) Rebuilds() uint64 { return b.rebuilds.Load() }

// NewIndex builds the mining index over a trace. The trace must not be
// mutated afterwards.
func NewIndex(tr *fot.Trace) (*Index, error) {
	return new(IndexBuilder).Extend(tr)
}

// HostTickets returns one host's tickets in detection-time order (nil
// for a host with no tickets). The returned slice is freshly allocated;
// the tickets themselves are shared with the index's trace.
func (ix *Index) HostTickets(host uint64) []fot.Ticket {
	idxs := rowsOf(ix, ix.p.byHost, host)
	if len(idxs) == 0 {
		return nil
	}
	out := make([]fot.Ticket, len(idxs))
	for i, ti := range idxs {
		out[i] = ix.trace.Tickets[ti]
	}
	return out
}

// Context is the related-information report for one ticket — what the
// paper says operators need to stop treating each FOT independently.
type Context struct {
	Ticket fot.Ticket
	// ServerHistory is the host's earlier tickets, most recent first
	// (capped at 16).
	ServerHistory []fot.Ticket
	// SlotRepeats counts earlier tickets on the same component instance
	// with the same failure type — a chronic / ineffective-repair alarm
	// when large.
	SlotRepeats int
	// LastSameFailure is the most recent earlier ticket of the same
	// (slot, type), if any.
	LastSameFailure *fot.Ticket
	// BatchPeers counts same-(device, type) tickets on other servers
	// within ±BatchWindow — large values mean this FOT is one of a batch
	// and should be handled as a cohort, not an incident.
	BatchPeers  int
	BatchWindow time.Duration
	// TwinHosts lists other hosts whose identical failure occurred
	// within ±2 minutes — the §V-C synchronized-repeat signature.
	TwinHosts []uint64
}

// IsChronicSuspect reports whether the ticket looks like the paper's BBU
// case: the same instance failing over and over.
func (c *Context) IsChronicSuspect() bool { return c.SlotRepeats >= 5 }

// IsBatchSuspect reports whether the ticket is likely part of a batch
// failure.
func (c *Context) IsBatchSuspect() bool { return c.BatchPeers >= 10 }

// Contextualize assembles the Context for a ticket id.
func (ix *Index) Contextualize(id uint64) (*Context, error) {
	idx, ok := ix.rowOf(id)
	if !ok {
		return nil, fmt.Errorf("mine: unknown ticket id %d", id)
	}
	t := ix.trace.Tickets[idx]
	const batchWindow = 3 * time.Hour
	const twinSkew = 2 * time.Minute
	ctx := &Context{Ticket: t, BatchWindow: batchWindow}

	// Server history: earlier tickets on the host, most recent first.
	hostTickets := rowsOf(ix, ix.p.byHost, t.HostID)
	for i := len(hostTickets) - 1; i >= 0; i-- {
		ht := ix.trace.Tickets[hostTickets[i]]
		if !ht.Time.Before(t.Time) || ht.ID == t.ID {
			continue
		}
		ctx.ServerHistory = append(ctx.ServerHistory, ht)
		if len(ctx.ServerHistory) >= 16 {
			break
		}
	}
	// Slot repeat chain.
	for _, si := range rowsOf(ix, ix.p.bySlot, slotKey{t.HostID, t.Device, t.Slot}) {
		st := ix.trace.Tickets[si]
		if st.ID == t.ID || !st.Time.Before(t.Time) || st.Type != t.Type {
			continue
		}
		ctx.SlotRepeats++
		cp := st
		ctx.LastSameFailure = &cp
	}
	// Batch peers and twins.
	peers := rowsOf(ix, ix.p.byTypeTime, [2]string{t.Device.String(), t.Type})
	lo := sort.Search(len(peers), func(i int) bool {
		return !ix.trace.Tickets[peers[i]].Time.Before(t.Time.Add(-batchWindow))
	})
	for i := lo; i < len(peers); i++ {
		pt := ix.trace.Tickets[peers[i]]
		if pt.Time.After(t.Time.Add(batchWindow)) {
			break
		}
		if pt.HostID == t.HostID {
			continue
		}
		ctx.BatchPeers++
		skew := pt.Time.Sub(t.Time)
		if skew < 0 {
			skew = -skew
		}
		if skew <= twinSkew && len(ctx.TwinHosts) < 8 {
			ctx.TwinHosts = appendUniqueHost(ctx.TwinHosts, pt.HostID)
		}
	}
	return ctx, nil
}

func appendUniqueHost(hosts []uint64, h uint64) []uint64 {
	for _, x := range hosts {
		if x == h {
			return hosts
		}
	}
	return append(hosts, h)
}

// ChronicServer summarizes one repeat-heavy server — the report operators
// need to spot the year-long BBU-style flappers (§III-D).
type ChronicServer struct {
	HostID uint64
	// Tickets is the server's total failure count.
	Tickets int
	// WorstSlotRepeats is the largest same-(device, slot) ticket count
	// on the server — the flap counter.
	WorstSlotRepeats int
	// WorstSlot labels that component instance, e.g. "raid_card/raid0".
	WorstSlot string
	// Span is the time between the server's first and last ticket.
	Span time.Duration
}

// ChronicServers ranks servers by their worst same-instance repeat count
// and returns the top n (fewer if the trace has fewer repeat-heavy
// servers; only servers with at least minRepeats qualify).
func ChronicServers(tr *fot.Trace, n, minRepeats int) ([]ChronicServer, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("mine: empty trace")
	}
	if n < 1 {
		n = 10
	}
	if minRepeats < 2 {
		minRepeats = 2
	}
	type hostAgg struct {
		tickets  int
		lo, hi   time.Time
		bySlot   map[slotKey]int
		slotType map[slotKey]string
	}
	hosts := make(map[uint64]*hostAgg)
	for _, t := range tr.Failures().Tickets {
		agg := hosts[t.HostID]
		if agg == nil {
			agg = &hostAgg{
				lo: t.Time, hi: t.Time,
				bySlot:   make(map[slotKey]int),
				slotType: make(map[slotKey]string),
			}
			hosts[t.HostID] = agg
		}
		agg.tickets++
		if t.Time.Before(agg.lo) {
			agg.lo = t.Time
		}
		if t.Time.After(agg.hi) {
			agg.hi = t.Time
		}
		sk := slotKey{t.HostID, t.Device, t.Slot}
		agg.bySlot[sk]++
		agg.slotType[sk] = t.Device.String() + "/" + t.Slot
	}
	var out []ChronicServer
	for host, agg := range hosts {
		worst, label := 0, ""
		for sk, c := range agg.bySlot {
			if c > worst {
				worst, label = c, agg.slotType[sk]
			}
		}
		if worst < minRepeats {
			continue
		}
		out = append(out, ChronicServer{
			HostID:           host,
			Tickets:          agg.tickets,
			WorstSlotRepeats: worst,
			WorstSlot:        label,
			Span:             agg.hi.Sub(agg.lo),
		})
	}
	slices.SortFunc(out, func(a, b ChronicServer) int {
		if a.WorstSlotRepeats != b.WorstSlotRepeats {
			return b.WorstSlotRepeats - a.WorstSlotRepeats
		}
		if a.HostID < b.HostID {
			return -1
		}
		return 1
	})
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}
