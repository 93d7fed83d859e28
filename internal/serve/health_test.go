package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
)

// healthz is a helper that hits /healthz and decodes the reply.
func healthz(t *testing.T, srv *httptest.Server) (int, HealthReply) {
	t.Helper()
	resp, body := get(t, srv, "/healthz")
	var reply HealthReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	return resp.StatusCode, reply
}

// TestHealthzUsesLagProbe: a replica daemon reports replication lag, not
// pending-queue lag — SetLagProbe overrides the measurement.
func TestHealthzUsesLagProbe(t *testing.T) {
	_, census := smallWorld(t)
	d := New(Options{Census: census, DegradedAfter: 100 * time.Millisecond})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	lag := int64(0)
	d.SetLagProbe(func() time.Duration { return time.Duration(lag) })
	if code, reply := healthz(t, srv); code != http.StatusOK || reply.Status != HealthOK {
		t.Fatalf("zero-lag probe: healthz = %d %+v, want 200 ok", code, reply)
	}
	lag = int64(5 * time.Second)
	if code, reply := healthz(t, srv); code != http.StatusServiceUnavailable || reply.Status != HealthDegraded {
		t.Fatalf("lagging probe: healthz = %d %+v, want 503 degraded", code, reply)
	}
	lag = 0
	if code, reply := healthz(t, srv); code != http.StatusOK || reply.Status != HealthOK {
		t.Fatalf("caught-up probe: healthz = %d %+v, want 200 ok", code, reply)
	}
}

// TestStatsSourceDropsMonotonic: the /stats drop counter is a high-water
// mark — a probe that resets (source swap, reconnect) never makes the
// exported counter go backwards, so chaos runs can assert "zero new
// drops" by simple subtraction.
func TestStatsSourceDropsMonotonic(t *testing.T) {
	_, census := smallWorld(t)
	drops := uint64(0)
	d := New(Options{Census: census, SourceDrops: func() uint64 { return drops }})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	read := func() uint64 {
		t.Helper()
		_, body := get(t, srv, "/stats")
		var stats StatsReply
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		return stats.SourceDrops
	}

	if got := read(); got != 0 {
		t.Fatalf("initial source_drops = %d, want 0", got)
	}
	drops = 7
	if got := read(); got != 7 {
		t.Fatalf("source_drops after probe=7: %d, want 7", got)
	}
	drops = 2 // source replaced: its counter restarted
	if got := read(); got != 7 {
		t.Fatalf("source_drops after probe reset to 2: %d, want high-water 7", got)
	}
	drops = 11
	if got := read(); got != 11 {
		t.Fatalf("source_drops after probe=11: %d, want 11", got)
	}
}

// TestStateRowsAndWatch covers the replication hooks: Rows hands out
// immutable log prefixes, Watch signals on every published fold, and
// FoldTo publishes under an explicit epoch (including the empty-batch
// marker-replay case) while rejecting regressions.
func TestStateRowsAndWatch(t *testing.T) {
	_, census := smallWorld(t)
	st := NewState(census, 0)
	ch := st.Watch()
	defer st.Unwatch(ch)

	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id uint64) fot.Ticket {
		return fot.Ticket{ID: id, HostID: id, IDC: "dc01", Device: fot.HDD, Type: "SMARTFail",
			Time: base.Add(time.Duration(id) * time.Hour), Category: fot.Fixing, Action: fot.ActionRepairOrder}
	}

	st.Fold([]fot.Ticket{mk(1), mk(2)}, base)
	select {
	case <-ch:
	default:
		t.Fatal("no watch signal after Fold")
	}

	if _, err := st.FoldTo([]fot.Ticket{mk(3)}, 1, base); err == nil {
		t.Fatal("FoldTo with a non-advancing epoch succeeded")
	}
	snap, err := st.FoldTo([]fot.Ticket{mk(3)}, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != 5 || snap.Tickets() != 3 {
		t.Fatalf("FoldTo published epoch %d with %d tickets, want 5/3", snap.Epoch(), snap.Tickets())
	}
	// Empty-batch epoch advance (marker replay after reconnect).
	if _, err := st.FoldTo(nil, 6, base); err != nil {
		t.Fatalf("empty-batch FoldTo: %v", err)
	}
	if got := st.Current(); got.Epoch() != 6 || got.Tickets() != 3 {
		t.Fatalf("after empty FoldTo: epoch %d tickets %d, want 6/3", got.Epoch(), got.Tickets())
	}

	rows, err := st.Rows(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].ID != 2 || rows[1].ID != 3 {
		t.Fatalf("Rows(1,3) = %v", rows)
	}
	if _, err := st.Rows(0, 4); err == nil {
		t.Fatal("Rows past the published tail succeeded")
	}
	if _, err := st.Rows(-1, 1); err == nil {
		t.Fatal("Rows with negative from succeeded")
	}
}

// TestRenderSectionsSingleflight pins the stampede guard: N concurrent
// requests for the same cold section trigger exactly one render — the
// rest wait for it — and everyone gets identical bytes. A gated test
// section holds the render open until every waiter has registered, so
// the counter assertions are deterministic: one miss (the renderer),
// N-1 waits, zero hits — a waiter blocks on an in-flight render, it is
// NOT served from the done map and must not be counted as a hit.
func TestRenderSectionsSingleflight(t *testing.T) {
	trace, census := smallWorld(t)
	st := NewState(census, 0)
	release := make(chan struct{})
	st.sections["slowtest"] = core.Section{ID: "slowtest", Render: func(_ *fot.TraceIndex, w io.Writer) error {
		<-release
		_, err := io.WriteString(w, "slow section body\n")
		return err
	}}
	st.Fold(trace.Tickets, time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	snap := st.Current()

	const readers = 32
	start := make(chan struct{})
	bodies := make([][]byte, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := st.RenderSections(snap, []string{"slowtest"})
			if err != nil {
				errs[i] = err
				return
			}
			if res[0].Err != nil {
				errs[i] = res[0].Err
				return
			}
			bodies[i] = res[0].Text
		}(i)
	}
	close(start)
	// Let every reader classify itself against the in-flight render, then
	// release it. The renderer holds the channel open until this fires.
	for {
		_, misses, waits := st.CacheStats()
		if misses == 1 && waits == readers-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("reader %d got different bytes", i)
		}
	}
	hits, misses, waits := st.CacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 render for %d concurrent readers", misses, readers)
	}
	if waits != readers-1 {
		t.Fatalf("waits = %d, want %d", waits, readers-1)
	}
	if hits != 0 {
		t.Fatalf("hits = %d, want 0: waiters must not count as cache hits", hits)
	}
}
