package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dcfail/internal/fot"
)

// pacedDaemon is a daemon whose two time inputs the test owns: the
// injected clock, and the spacing timer (armed timers are parked in
// armed instead of running, and fire only when the test says so). The
// source is an unbuffered channel, so every send is one arrival.
type pacedDaemon struct {
	t       *testing.T
	d       *Daemon
	tickets chan fot.Ticket
	armed   chan armedTimer

	mu   sync.Mutex
	now  time.Time
	sent uint64
}

type armedTimer struct {
	wait time.Duration
	fire chan time.Time
}

var pacingEpoch = time.Date(2017, 6, 26, 12, 0, 0, 0, time.UTC)

func newPacedDaemon(t *testing.T, opts Options) *pacedDaemon {
	t.Helper()
	_, census := smallWorld(t)
	p := &pacedDaemon{
		t:       t,
		tickets: make(chan fot.Ticket),
		armed:   make(chan armedTimer, 16),
		now:     pacingEpoch,
	}
	opts.Census = census
	opts.Now = p.clock
	p.d = New(opts)
	p.d.after = func(wait time.Duration) <-chan time.Time {
		fire := make(chan time.Time, 1)
		p.armed <- armedTimer{wait: wait, fire: fire}
		return fire
	}
	p.d.StartIngest(FromChannel(p.tickets))
	return p
}

func (p *pacedDaemon) clock() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

func (p *pacedDaemon) advance(by time.Duration) {
	p.mu.Lock()
	p.now = p.now.Add(by)
	p.mu.Unlock()
}

// send delivers n tickets, one arrival each, and returns once the ingest
// loop has accounted for all of them (folded or pending).
func (p *pacedDaemon) send(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		p.sent++
		p.tickets <- fot.Ticket{ID: p.sent, HostID: p.sent, IDC: "dc01", Device: fot.HDD, Type: "SMARTFail",
			Time: pacingEpoch.Add(time.Duration(p.sent) * time.Second), Category: fot.Fixing, Action: fot.ActionRepairOrder}
	}
	p.settle(func() bool { return p.d.ingested.Load()+uint64(p.d.pending.Load()) == p.sent })
}

func (p *pacedDaemon) settle(cond func() bool) {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			p.t.Fatal("ingest loop never settled")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// timer returns the one spacing timer the loop armed since the last
// call, or fails; noTimer fails if there is one.
func (p *pacedDaemon) timer() armedTimer {
	p.t.Helper()
	select {
	case tm := <-p.armed:
		return tm
	default:
		p.t.Fatal("no spacing timer armed")
		return armedTimer{}
	}
}

func (p *pacedDaemon) noTimer() {
	p.t.Helper()
	select {
	case tm := <-p.armed:
		p.t.Fatalf("spacing timer armed for %v, want none", tm.wait)
	default:
	}
}

// want checks the published epoch, its row count, the pending count, and
// that the epoch was stamped by the injected clock at foldedAt.
func (p *pacedDaemon) want(epoch uint64, tickets int, pending int64, foldedAt time.Time) {
	p.t.Helper()
	snap := p.d.State().Current()
	if snap.Epoch() != epoch || snap.Tickets() != tickets || p.d.pending.Load() != pending {
		p.t.Fatalf("epoch %d with %d tickets, %d pending; want %d/%d/%d",
			snap.Epoch(), snap.Tickets(), p.d.pending.Load(), epoch, tickets, pending)
	}
	if !snap.FoldedAt().Equal(foldedAt) {
		p.t.Fatalf("epoch %d FoldedAt = %v, want the injected clock's %v", epoch, snap.FoldedAt(), foldedAt)
	}
}

// TestIngestPacing is the visibility clock, step by step on a fake
// clock: the first ticket after a quiet spell folds at once, what follows
// within foldSpacing coalesces into one epoch when the spacing runs out,
// FoldBatch folds early, and whatever is pending at EOF or shutdown is
// folded on the way out. Every FoldedAt is the injected clock's reading.
func TestIngestPacing(t *testing.T) {
	t0 := pacingEpoch
	cases := []struct {
		name string
		opts Options
		run  func(p *pacedDaemon)
	}{
		{"first ticket after idle folds at once", Options{}, func(p *pacedDaemon) {
			p.send(1)
			p.want(1, 1, 0, t0)
			p.noTimer()
			// Quiet for exactly the spacing: idle again.
			p.advance(foldSpacing)
			p.send(1)
			p.want(2, 2, 0, t0.Add(foldSpacing))
			p.noTimer()
		}},
		{"a burst inside the spacing is one epoch", Options{}, func(p *pacedDaemon) {
			p.send(1)
			p.want(1, 1, 0, t0)
			p.advance(4 * time.Millisecond)
			p.send(3)
			p.want(1, 1, 3, t0)
			tm := p.timer()
			if want := foldSpacing - 4*time.Millisecond; tm.wait != want {
				t.Fatalf("spacing timer armed for %v, want the remaining %v", tm.wait, want)
			}
			p.noTimer() // one timer for the whole burst
			p.advance(tm.wait)
			tm.fire <- p.clock()
			p.settle(func() bool { return p.d.pending.Load() == 0 })
			p.want(2, 4, 0, t0.Add(foldSpacing))
		}},
		{"FoldBatch folds early", Options{FoldBatch: 3}, func(p *pacedDaemon) {
			p.send(1)
			p.send(2)
			p.want(1, 1, 2, t0)
			p.timer()
			p.send(1)
			p.want(2, 4, 0, t0)
			// The spacing starts over from the early fold.
			p.send(1)
			p.want(2, 4, 1, t0)
			if tm := p.timer(); tm.wait != foldSpacing {
				t.Fatalf("spacing timer after an early fold armed for %v, want %v", tm.wait, foldSpacing)
			}
		}},
		{"EOF folds the remainder", Options{}, func(p *pacedDaemon) {
			p.send(1)
			p.send(2)
			p.want(1, 1, 2, t0)
			p.advance(time.Millisecond)
			close(p.tickets)
			p.settle(p.d.Drained)
			p.want(2, 3, 0, t0.Add(time.Millisecond))
		}},
		{"shutdown folds the remainder", Options{}, func(p *pacedDaemon) {
			p.send(1)
			p.send(2)
			p.want(1, 1, 2, t0)
			p.advance(time.Millisecond)
			if err := p.d.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			p.want(2, 3, 0, t0.Add(time.Millisecond))
			if p.d.Drained() {
				t.Fatal("a shutdown is not a drained source")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPacedDaemon(t, tc.opts)
			p.t = t
			defer p.d.Shutdown(context.Background())
			tc.run(p)
		})
	}
}

// stats is a helper that hits /stats and decodes the reply.
func stats(t *testing.T, srv *httptest.Server) StatsReply {
	t.Helper()
	_, body := get(t, srv, "/stats")
	var reply StatsReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("/stats body %q: %v", body, err)
	}
	return reply
}

// TestHealthzDegradesOnSourceLag pins the failover signal: once a
// pending ticket has waited longer than DegradedAfter, /healthz flips to
// 503 + status "degraded"; folding it flips it back. The ticket is
// pending for real — it arrived inside the spacing and the test holds the
// spacing timer — and the clock is injected, so the lag is exact.
func TestHealthzDegradesOnSourceLag(t *testing.T) {
	p := newPacedDaemon(t, Options{DegradedAfter: 500 * time.Millisecond})
	defer p.d.Shutdown(context.Background())
	srv := httptest.NewServer(p.d.Handler())
	defer srv.Close()

	// Nothing pending: healthy.
	if code, reply := healthz(t, srv); code != http.StatusOK || reply.Status != HealthOK {
		t.Fatalf("idle healthz = %d %+v, want 200 ok", code, reply)
	}

	// One ticket folds at once; the next arrives inside the spacing and
	// then the loop stalls (the timer never fires): it ages past the
	// threshold without a fold.
	p.send(1)
	p.send(1)
	tm := p.timer()
	p.advance(200 * time.Millisecond)
	if code, reply := healthz(t, srv); code != http.StatusOK || reply.Status != HealthOK || reply.LagMS != 200 {
		t.Fatalf("lag under threshold: healthz = %d %+v, want 200 ok with 200ms lag", code, reply)
	}
	p.advance(time.Second)
	code, reply := healthz(t, srv)
	if code != http.StatusServiceUnavailable || reply.Status != HealthDegraded {
		t.Fatalf("lag over threshold: healthz = %d %+v, want 503 degraded", code, reply)
	}
	if reply.Reason == "" || reply.LagMS != 1200 {
		t.Fatalf("degraded reply carries no diagnosis: %+v", reply)
	}
	if got := stats(t, srv); got.IngestLagMS != 1200 || got.Pending != 1 {
		t.Fatalf("/stats ingest_lag_ms/pending = %d/%d, want 1200/1", got.IngestLagMS, got.Pending)
	}

	// The fold catches up: healthy again, epoch visible.
	tm.fire <- p.clock()
	p.settle(func() bool { return p.d.pending.Load() == 0 })
	if code, reply := healthz(t, srv); code != http.StatusOK || reply.Status != HealthOK || reply.Epoch != 2 || reply.LagMS != 0 {
		t.Fatalf("recovered healthz = %d %+v, want 200 ok at epoch 2", code, reply)
	}
}

// TestIngestLagIsMeasuredFromArrival is the regression test for lag
// measured from the last fold instead of from the pending ticket's
// arrival: after an idle hour a pending ticket read as an hour of lag,
// /healthz answered 503 and a router failed over a healthy daemon. A
// ticket is pending after an idle hour only as the second of a burst
// (the first folds at once), and its lag starts at its own arrival.
func TestIngestLagIsMeasuredFromArrival(t *testing.T) {
	p := newPacedDaemon(t, Options{DegradedAfter: 500 * time.Millisecond})
	defer p.d.Shutdown(context.Background())
	srv := httptest.NewServer(p.d.Handler())
	defer srv.Close()

	p.send(1)
	p.advance(time.Hour)
	p.send(1) // idle for an hour: folds at once
	p.advance(2 * time.Millisecond)
	p.send(1) // inside the spacing: pending
	p.timer()
	code, reply := healthz(t, srv)
	if code != http.StatusOK || reply.Status != HealthOK || reply.LagMS != 0 {
		t.Fatalf("one ticket just pending after an idle hour: healthz = %d %+v, want 200 ok with no lag", code, reply)
	}
	p.advance(30 * time.Millisecond)
	if code, reply = healthz(t, srv); code != http.StatusOK || reply.LagMS != 30 {
		t.Fatalf("30ms later: healthz = %d %+v, want 200 ok with 30ms lag (FoldedAt is 32ms old)", code, reply)
	}
	if got := stats(t, srv); got.IngestLagMS != 30 || got.Pending != 1 {
		t.Fatalf("/stats ingest_lag_ms/pending = %d/%d, want 30/1", got.IngestLagMS, got.Pending)
	}
}
