package mine

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dcfail/internal/fot"
)

// timeOrdered returns the fixture's tickets in detection-time order, the
// order a live source appends them in.
func timeOrdered(t *testing.T) []fot.Ticket {
	t.Helper()
	tickets := slices.Clone(fixture(t).Trace.Tickets)
	slices.SortStableFunc(tickets, func(a, b fot.Ticket) int { return a.Time.Compare(b.Time) })
	return tickets
}

// requireSameIndex checks that got answers exactly what a from-scratch
// index over the same rows answers: every host's tickets, and the context
// of every host's newest ticket (what /hosts/{id} serves), plus a sample
// of arbitrary tickets.
func requireSameIndex(t *testing.T, got *Index, rows []fot.Ticket) {
	t.Helper()
	want, err := NewIndex(fot.NewTrace(rows))
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[uint64]bool{}
	for i, tk := range rows {
		if i%97 == 0 {
			hosts[0] = true // a host with no tickets
			sameContext(t, got, want, tk.ID)
		}
		if hosts[tk.HostID] {
			continue
		}
		hosts[tk.HostID] = true
		g, w := got.HostTickets(tk.HostID), want.HostTickets(tk.HostID)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%d rows: HostTickets(%d) = %d tickets, want %d", len(rows), tk.HostID, len(g), len(w))
		}
		sameContext(t, got, want, w[len(w)-1].ID)
	}
	if got.HostTickets(0) != nil {
		t.Fatal("unknown host has tickets")
	}
}

func sameContext(t *testing.T, got, want *Index, id uint64) {
	t.Helper()
	g, gerr := got.Contextualize(id)
	w, werr := want.Contextualize(id)
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(g, w) {
		t.Fatalf("Contextualize(%d) = %+v, %v; want %+v, %v", id, g, gerr, w, werr)
	}
}

// TestIndexBuilderMatchesNewIndex extends one index over random fold
// schedules — single tickets to thousands per fold — and requires every
// epoch's view, including the ones handed out long before the last fold,
// to equal NewIndex over exactly its rows. In-order schedules must never
// rebuild.
func TestIndexBuilderMatchesNewIndex(t *testing.T) {
	tickets := timeOrdered(t)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var b IndexBuilder
		type epoch struct {
			ix *Index
			n  int
		}
		var epochs []epoch
		for n := 0; n < len(tickets); {
			step := 1 + rng.Intn(8)
			if rng.Intn(4) == 0 {
				step = 1 + rng.Intn(3000)
			}
			n = min(n+step, len(tickets))
			ix, err := b.Extend(fot.NewTrace(tickets[:n:n]))
			if err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, epoch{ix, n})
		}
		if b.Rebuilds() != 0 {
			t.Fatalf("seed %d: %d rebuilds on an in-order schedule", seed, b.Rebuilds())
		}
		// Old views were clipped while the lists kept growing under them.
		for i := 0; i < len(epochs); i += 1 + len(epochs)/12 {
			requireSameIndex(t, epochs[i].ix, tickets[:epochs[i].n])
		}
		requireSameIndex(t, epochs[len(epochs)-1].ix, tickets)
	}
}

// TestIndexBuilderRebuildsOnOutOfOrderBatch: a batch holding a row older
// than one already listed cannot be appended to time-ordered lists. The
// builder starts over, counts it, keeps extending the new lists in place
// afterwards, and the views handed out before the rebuild stay right.
func TestIndexBuilderRebuildsOnOutOfOrderBatch(t *testing.T) {
	tickets := timeOrdered(t)
	cut := len(tickets) / 2
	// The second half arrives with its newest rows first.
	rows := slices.Clone(tickets)
	slices.Reverse(rows[cut : cut+500])

	var b IndexBuilder
	before, err := b.Extend(fot.NewTrace(rows[:cut:cut]))
	if err != nil {
		t.Fatal(err)
	}
	// Out of order inside one batch is fine: the batch is sorted.
	mid, err := b.Extend(fot.NewTrace(rows[: cut+500 : cut+500]))
	if err != nil || b.Rebuilds() != 0 {
		t.Fatalf("a shuffled batch after the listed rows rebuilt: %d rebuilds, err %v", b.Rebuilds(), err)
	}
	requireSameIndex(t, mid, rows[:cut+500])

	// A straggler from the first half's time range.
	late := tickets[10]
	late.ID = 1 << 50
	rows = append(rows[:cut+500:cut+500], late)
	after, err := b.Extend(fot.NewTrace(rows))
	if err != nil {
		t.Fatal(err)
	}
	if b.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d after an out-of-order batch, want 1", b.Rebuilds())
	}
	requireSameIndex(t, after, rows)
	requireSameIndex(t, before, rows[:cut])
	requireSameIndex(t, mid, rows[:cut+500])

	// In-order rows after the rebuild extend the rebuilt lists.
	next := tickets[len(tickets)-1]
	next.ID, next.Time = 1<<50+1, next.Time.Add(time.Hour)
	rows = append(rows, next)
	last, err := b.Extend(fot.NewTrace(rows))
	if err != nil || b.Rebuilds() != 1 {
		t.Fatalf("in-order extension after a rebuild: %d rebuilds, err %v", b.Rebuilds(), err)
	}
	requireSameIndex(t, last, rows)
	requireSameIndex(t, after, rows[:len(rows)-1])
}

// TestIndexBuilderDuplicateID: a trace with a duplicate ticket id has no
// index, at the epoch that brings it and at every later one, as NewIndex
// over those rows would say.
func TestIndexBuilderDuplicateID(t *testing.T) {
	tickets := timeOrdered(t)[:100]
	var b IndexBuilder
	if _, err := b.Extend(fot.NewTrace(tickets[:50:50])); err != nil {
		t.Fatal(err)
	}
	dup := tickets[60]
	dup.ID = tickets[3].ID
	rows := append(slices.Clone(tickets[:60]), dup)
	_, err := b.Extend(fot.NewTrace(rows))
	_, want := NewIndex(fot.NewTrace(rows))
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("duplicate id: builder says %v, NewIndex says %v", err, want)
	}
	rows = append(rows, tickets[61])
	if _, err := b.Extend(fot.NewTrace(rows)); err == nil {
		t.Fatal("a later epoch forgot the duplicate id")
	}
}

// TestIndexViewsReadWhileExtending runs readers on handed-out views
// against a builder that keeps appending — the race detector's view of
// the shared posting lists.
func TestIndexViewsReadWhileExtending(t *testing.T) {
	tickets := timeOrdered(t)
	if len(tickets) > 4000 {
		tickets = tickets[:4000]
	}
	var b IndexBuilder
	first, err := b.Extend(fot.NewTrace(tickets[:1000:1000]))
	if err != nil {
		t.Fatal(err)
	}
	views := make(chan *Index, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ix := first
			for {
				select {
				case <-stop:
					return
				case ix = <-views:
				default:
				}
				tk := tickets[rng.Intn(ix.n)]
				if got := ix.HostTickets(tk.HostID); len(got) == 0 {
					t.Errorf("host %d lost its tickets", tk.HostID)
					return
				}
				if _, err := ix.Contextualize(tk.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	for n := 1010; n <= len(tickets); n += 10 {
		ix, err := b.Extend(fot.NewTrace(tickets[:n:n]))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case views <- ix:
		default:
		}
	}
	close(stop)
	wg.Wait()
	requireSameIndex(t, first, tickets[:1000])
}
