package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
	"dcfail/internal/report"
)

// viewRig is a daemon with an injected clock and no ingest loop: the test
// folds into the State itself, so it owns both clocks.
type viewRig struct {
	t       *testing.T
	d       *Daemon
	census  *core.Census
	tickets []fot.Ticket
	now     time.Time
	folded  int
}

func newViewRig(t *testing.T, interval time.Duration) *viewRig {
	t.Helper()
	tickets, _ := timeSorted(t)
	_, census := smallWorld(t)
	r := &viewRig{t: t, census: census, tickets: tickets, now: pacingEpoch}
	r.d = New(Options{Census: census, FoldInterval: interval, Now: func() time.Time { return r.now }})
	return r
}

// fold publishes the next n tickets as one epoch at the rig's clock.
func (r *viewRig) fold(n int) {
	r.d.State().Fold(r.tickets[r.folded:r.folded+n], r.now)
	r.folded += n
}

// get serves one request in-process, with an X-Min-Epoch header unless
// minEpoch is empty, and returns its status, X-Epoch, X-Tickets and body.
func (r *viewRig) get(path, minEpoch string) (code int, epoch uint64, tickets int, body []byte) {
	r.t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if minEpoch != "" {
		req.Header.Set("X-Min-Epoch", minEpoch)
	}
	rec := httptest.NewRecorder()
	r.d.Handler().ServeHTTP(rec, req)
	epoch, _ = strconv.ParseUint(rec.Header().Get("X-Epoch"), 10, 64)
	tickets, _ = strconv.Atoi(rec.Header().Get("X-Tickets"))
	return rec.Code, epoch, tickets, rec.Body.Bytes()
}

// referenceReport is report.SerialReference over the first n rows of the
// state's log, optionally cut to one section (without its separator
// line, as /report/{section} serves it).
func referenceReport(t *testing.T, st *State, census *core.Census, n int, section string) []byte {
	t.Helper()
	rows, err := st.Rows(0, n)
	if err != nil {
		t.Fatal(err)
	}
	var only func(string) bool
	if section != "" {
		only = func(id string) bool { return id == section }
	}
	var buf bytes.Buffer
	if err := report.SerialReference(&buf, fot.NewTrace(rows), census, only); err != nil {
		t.Fatalf("serial reference over %d rows: %v", n, err)
	}
	if section != "" {
		return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	}
	return buf.Bytes()
}

// TestReportViewAdvancesOncePerFoldInterval is the report clock on a fake
// clock: under continuous folds /report and /report/{section} keep
// serving one view for FoldInterval and then catch up in one step; after
// a quiet interval the next report is current; /stats shows both clocks.
func TestReportViewAdvancesOncePerFoldInterval(t *testing.T) {
	const interval = 200 * time.Millisecond
	r := newViewRig(t, interval)
	st := r.d.State()
	check := func(path, section string, wantEpoch uint64) {
		t.Helper()
		code, epoch, tickets, body := r.get(path, "")
		if code != http.StatusOK || epoch != wantEpoch {
			t.Fatalf("%s at +%v = %d at epoch %d, want 200 at epoch %d", path, r.now.Sub(pacingEpoch), code, epoch, wantEpoch)
		}
		if !bytes.Equal(body, referenceReport(t, st, r.census, tickets, section)) {
			t.Fatalf("%s at epoch %d is not the serial reference over its %d rows", path, epoch, tickets)
		}
	}

	// The first report ever is current: the empty view has never stood.
	r.fold(3000)
	check("/report", "", 1)

	// A fold every 10 ms for 190 ms: nineteen epochs, one view.
	for i := 0; i < 19; i++ {
		r.now = r.now.Add(10 * time.Millisecond)
		r.fold(50)
		check("/report/table1", "table1", 1)
	}
	check("/report", "", 1)
	got := statsOf(t, r)
	if got.Epoch != 20 || got.Folds != 20 || got.ReportEpoch != 1 || got.ReportAdvances != 1 || got.IncEpoch != 1 {
		t.Fatalf("/stats mid-interval = epoch %d folds %d report_epoch %d advances %d inc_epoch %d, want 20/20/1/1/1",
			got.Epoch, got.Folds, got.ReportEpoch, got.ReportAdvances, got.IncEpoch)
	}
	if got.ReportLagMS != 180 {
		t.Fatalf("/stats report_lag_ms = %d, want 180 (epoch 2 was folded at +10ms, it is +190ms)", got.ReportLagMS)
	}

	// The interval is up: the next request catches up, over nineteen
	// epochs in one engine advance, and the new view stands again.
	r.now = r.now.Add(10 * time.Millisecond)
	r.fold(50)
	check("/report/fig5", "fig5", 21)
	r.now = r.now.Add(50 * time.Millisecond)
	r.fold(50)
	check("/report", "", 21)

	// Quiet for an interval: the next report is at Current.
	r.now = r.now.Add(interval)
	check("/report", "", 22)
	got = statsOf(t, r)
	if got.ReportEpoch != 22 || got.ReportAdvances != 3 || got.ReportLagMS != 0 || got.Folds != 22 {
		t.Fatalf("/stats caught up = report_epoch %d advances %d lag %d folds %d, want 22/3/0/22",
			got.ReportEpoch, got.ReportAdvances, got.ReportLagMS, got.Folds)
	}
	// A view at Current does not count requests as advances.
	r.now = r.now.Add(10 * interval)
	check("/report", "", 22)
	if got = statsOf(t, r); got.ReportAdvances != 3 {
		t.Fatalf("idle requests advanced the view: %d advances, want 3", got.ReportAdvances)
	}
	if _, eng := st.IncrementalStats(); eng.Rebuilds != 0 || len(eng.Broken) != 0 {
		t.Fatalf("engine = %+v, want no rebuilds, nothing broken", eng)
	}
}

func statsOf(t *testing.T, r *viewRig) StatsReply {
	t.Helper()
	_, _, _, body := r.get("/stats", "")
	var reply StatsReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("/stats body %q: %v", body, err)
	}
	return reply
}

// TestMinEpochForcesReportViewCatchUp pins the monotonic-read contract on
// the daemon itself: X-Min-Epoch above the view is never answered from
// it, however recently it moved; a bound the view already meets leaves it
// alone; endpoints that read Current ignore the view entirely.
func TestMinEpochForcesReportViewCatchUp(t *testing.T) {
	r := newViewRig(t, time.Hour)
	r.fold(3000)
	if _, epoch, _, _ := r.get("/report/table1", ""); epoch != 1 {
		t.Fatalf("first report at epoch %d, want 1", epoch)
	}
	r.fold(50)
	r.fold(50)

	// What a client chains from: /hosts answers from Current.
	host := strconv.FormatUint(r.tickets[0].HostID, 10)
	code, seen, _, _ := r.get("/hosts/"+host, "")
	if code != http.StatusOK || seen != 3 {
		t.Fatalf("/hosts = %d at epoch %d, want 200 at the current epoch 3", code, seen)
	}
	if _, epoch, _, _ := r.get("/report/table1", "1"); epoch != 1 {
		t.Fatalf("X-Min-Epoch 1 moved a view already at 1 to %d", epoch)
	}
	code, epoch, tickets, body := r.get("/report", strconv.FormatUint(seen, 10))
	if code != http.StatusOK || epoch != 3 {
		t.Fatalf("/report with X-Min-Epoch %d = %d at epoch %d, want 200 at 3", seen, code, epoch)
	}
	if !bytes.Equal(body, referenceReport(t, r.d.State(), r.census, tickets, "")) {
		t.Fatal("forced catch-up body is not the serial reference over its rows")
	}
	// A bound beyond Current is answered with the newest there is; the
	// router is the one that compares X-Epoch with the bound.
	r.fold(50)
	if code, epoch, _, _ := r.get("/report/table2", "99"); code != http.StatusOK || epoch != 4 {
		t.Fatalf("X-Min-Epoch 99 = %d at epoch %d, want 200 at the current epoch 4", code, epoch)
	}
	if code, _, _, _ := r.get("/report", "soon"); code != http.StatusBadRequest {
		t.Fatalf("unparsable X-Min-Epoch = %d, want 400", code)
	}
}

// hostReference is the /hosts/{id} body a from-scratch mining index over
// the first n rows of the log produces.
func hostReference(t *testing.T, st *State, n int, epoch, host uint64) []byte {
	t.Helper()
	rows, err := st.Rows(0, n)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := mine.NewIndex(fot.NewTrace(rows))
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := hostReply(mix, host, epoch)
	if !ok {
		t.Fatalf("host %d has no tickets in the first %d rows, yet /hosts answered 200", host, n)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, reply)
	return rec.Body.Bytes()
}

// TestRandomScheduleEquivalence is the two clocks against the one-shot
// reference under the race detector: tickets arrive through the real
// ingest loop with random gaps and bursts while clients keep asking for
// /report, /report/{section} and /hosts/{id}. Every body must be the
// pure function of the rows its own X-Tickets names — SerialReference
// for reports, a from-scratch mining index for hosts — the final report
// must be the whole trace's, and the section engine must never have
// rebuilt or broken.
func TestRandomScheduleEquivalence(t *testing.T) {
	tickets, _ := timeSorted(t)
	_, census := smallWorld(t)
	if testing.Short() {
		tickets = tickets[:len(tickets)/4]
	}
	d := New(Options{Census: census, FoldInterval: 15 * time.Millisecond})
	st := d.State()
	feed := make(chan fot.Ticket, 256)
	d.StartIngest(FromChannel(feed))
	defer d.Shutdown(context.Background())

	type sample struct {
		path    string
		section string
		host    uint64
		epoch   uint64
		tickets int
		body    []byte
	}
	var (
		mu      sync.Mutex
		samples []sample
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	sections := st.SectionIDs()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := sample{path: "/report"}
				switch rng.Intn(3) {
				case 1:
					s.section = sections[rng.Intn(len(sections))]
					s.path = "/report/" + s.section
				case 2:
					s.host = tickets[rng.Intn(len(tickets))].HostID
					s.path = "/hosts/" + strconv.FormatUint(s.host, 10)
				}
				rec := httptest.NewRecorder()
				d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.path, nil))
				if rec.Code == http.StatusOK {
					s.epoch, _ = strconv.ParseUint(rec.Header().Get("X-Epoch"), 10, 64)
					s.tickets, _ = strconv.Atoi(rec.Header().Get("X-Tickets"))
					s.body = rec.Body.Bytes()
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
				}
				time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
			}
		}(c)
	}

	// Arrivals: single tickets and bursts of up to 400, gaps from none
	// to beyond the fold spacing.
	rng := rand.New(rand.NewSource(42))
	for sent := 0; sent < len(tickets); {
		burst := 1
		if rng.Intn(3) == 0 {
			burst = 1 + rng.Intn(400)
		}
		for ; burst > 0 && sent < len(tickets); burst, sent = burst-1, sent+1 {
			feed <- tickets[sent]
		}
		if gap := rng.Intn(4); gap > 0 {
			time.Sleep(time.Duration(rng.Intn(1+gap*6000)) * time.Microsecond)
		}
	}
	close(feed)
	waitDrained(t, d)
	close(stop)
	wg.Wait()

	if got := st.Current().Tickets(); got != len(tickets) {
		t.Fatalf("folded %d tickets, want %d", got, len(tickets))
	}
	time.Sleep(20 * time.Millisecond) // let the view's interval run out
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report", nil))
	if got := rec.Header().Get("X-Tickets"); got != strconv.Itoa(len(tickets)) {
		t.Fatalf("final /report covers %s tickets, want %d", got, len(tickets))
	}
	if !bytes.Equal(rec.Body.Bytes(), referenceReport(t, st, census, len(tickets), "")) {
		t.Fatal("final /report is not the serial reference over the whole trace")
	}

	// Check a spread of samples of each kind; references are dear, so
	// full reports are cached per row count.
	fullRef := map[int][]byte{}
	checked := map[string]int{}
	views := map[uint64]bool{}
	for i, s := range samples {
		if s.host == 0 {
			views[s.epoch] = true
		}
		kind := "report"
		switch {
		case s.host != 0:
			kind = "hosts"
		case s.section != "":
			kind = "section"
		}
		if limit := map[string]int{"report": 6, "section": 40, "hosts": 60}[kind]; checked[kind] >= limit || i%3 != 0 {
			continue
		}
		checked[kind]++
		var want []byte
		switch kind {
		case "hosts":
			want = hostReference(t, st, s.tickets, s.epoch, s.host)
		case "section":
			want = referenceReport(t, st, census, s.tickets, s.section)
		default:
			if fullRef[s.tickets] == nil {
				fullRef[s.tickets] = referenceReport(t, st, census, s.tickets, "")
			}
			want = fullRef[s.tickets]
		}
		if !bytes.Equal(s.body, want) {
			t.Fatalf("%s at epoch %d is not the reference over its own %d rows", s.path, s.epoch, s.tickets)
		}
	}
	folds, advances, _, _ := st.ClockStats(time.Now())
	t.Logf("%d tickets in %d epochs; %d samples over %d report views (%d advances); checked %v",
		len(tickets), folds, len(samples), len(views), advances, checked)
	if checked["report"] == 0 || checked["section"] == 0 || checked["hosts"] == 0 {
		t.Fatalf("schedule too short to sample every kind of request: %v", checked)
	}
	if advances >= folds {
		t.Fatalf("the report view advanced %d times over %d folds: the clocks are not apart", advances, folds)
	}
	if _, eng := st.IncrementalStats(); eng.Rebuilds != 0 || len(eng.Broken) != 0 {
		t.Fatalf("engine = %+v, want no rebuilds, nothing broken", eng)
	}
	if n := st.MineRebuilds(); n != 0 {
		t.Fatalf("mining index rebuilt %d times on an in-order schedule", n)
	}
}
