package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/archive"
	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
	"dcfail/internal/report"
	"dcfail/internal/serve"
)

// liveRate is the open-loop agent's fixed rate in reports per second.
const liveRate = 1000

// dirBytes is the exact size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// writeArchive appends a trace to an archive directory and finalizes it:
// fmsd's shutdown path, and how the cold stage's input is made.
func writeArchive(dir string, opts archive.Options, tr *fot.Trace) error {
	arch, err := archive.OpenWith(dir, opts)
	if err != nil {
		return err
	}
	if err := arch.AppendTrace(tr); err != nil {
		arch.Close()
		return err
	}
	return arch.Close()
}

// ingestResult is the ingest stage: fmsd's life.
type ingestResult struct {
	start     time.Time
	acks      samples
	acked     int
	dups      int
	wall      time.Duration
	walBytes  int64
	archBytes int64
}

func (r *ingestResult) perSlice(f func(sorted []int64, dur time.Duration) float64) []float64 {
	return r.acks.sliced(r.start, r.start.Add(r.wall), stageSlices, f)
}

// stageIngest runs a stand-alone WAL-backed collector (fsync on, group
// commit) under closed-loop agents for dur, then fmsd's shutdown path:
// close, export the pool, archive it. It then proves nothing acked was
// lost: a fresh collector on the same WAL recovers exactly the acked
// reports and the archive holds exactly as many tickets.
func stageIngest(tr *tracer, in *inputs, dir string, agents int, dur time.Duration) (*ingestResult, error) {
	walDir, archDir := filepath.Join(dir, "wal"), filepath.Join(dir, "archive")
	col, err := fmsnet.NewCollectorWith("127.0.0.1:0", fmsnet.CollectorOptions{WALDir: walDir})
	if err != nil {
		return nil, fmt.Errorf("ingest collector: %w", err)
	}
	stage := tr.begin("stage.ingest", -1, 0)
	logs := make([]*agentLog, agents)
	start := time.Now()
	deadline := start.Add(dur)
	timeUp := func(int) bool { return !time.Now().Before(deadline) }
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			logs[a] = closedLoopAgent(tr, stage, col.Addr(), fmt.Sprintf("bench-agent-%d", a), in.all, a, agents, timeUp)
		}(a)
	}
	wg.Wait()
	tr.end(stage)

	res := &ingestResult{start: start}
	last := start
	for _, l := range logs {
		if l.fatal != nil {
			col.Close()
			return nil, l.fatal
		}
		res.acks.merge(&l.acks)
		res.dups += l.dups
		if l.last.After(last) {
			last = l.last
		}
	}
	res.acked = len(res.acks.ns)
	res.wall = last.Sub(start)

	sp := tr.begin("fmsnet.shutdown", -1, 0)
	if err := col.Close(); err != nil {
		return nil, fmt.Errorf("ingest collector close: %w", err)
	}
	if err := writeArchive(archDir, archive.Options{Codec: archive.CodecBinary}, col.Trace()); err != nil {
		return nil, err
	}
	tr.end(sp)
	if res.walBytes, err = dirBytes(walDir); err != nil {
		return nil, err
	}
	if res.archBytes, err = dirBytes(archDir); err != nil {
		return nil, err
	}

	again, err := fmsnet.NewCollectorWith("127.0.0.1:0", fmsnet.CollectorOptions{WALDir: walDir})
	if err != nil {
		return nil, fmt.Errorf("reopen collector on its WAL: %w", err)
	}
	recovered := again.Recovered().Reports
	again.Close()
	if recovered != res.acked {
		return nil, fmt.Errorf("correctness: WAL recovered %d reports, %d were acked", recovered, res.acked)
	}
	arch, err := archive.OpenWith(archDir, archive.Options{Codec: archive.CodecBinary})
	if err != nil {
		return nil, err
	}
	count := arch.Count()
	arch.Close()
	if count != res.acked {
		return nil, fmt.Errorf("correctness: archive holds %d tickets, %d were acked", count, res.acked)
	}
	return res, nil
}

// liveResult is the live stage: reads beside writes.
type liveResult struct {
	sent      int
	acks      *samples // due → durable ack
	late      *samples // how late the generator sent
	fresh     samples  // due → servable on a replica
	dups      int
	queries   *queryLog
	segAck    float64 // mean ms, due → ack
	segPrim   float64 // mean ms, ack → primary epoch
	segRepl   float64 // mean ms, primary epoch → replica epoch
	streamLag samples // primary publish → replica publish, per epoch
}

// stageLive sends the live tail through the tier's collector from one
// open-loop agent at liveRate while one closed-loop client queries the
// router, and follows every ticket to the first replica epoch that
// serves it.
func stageLive(tr *tracer, t *tier, in *inputs, seed int64, dur time.Duration) (*liveResult, error) {
	n := int(dur.Seconds() * liveRate)
	if n > len(in.live) {
		n = len(in.live)
	}
	if n < 1 {
		n = 1
	}
	stage := tr.begin("stage.live", -1, 0)
	defer tr.end(stage)

	states := t.states()
	watchers := make([]*watcher, len(states))
	for i, st := range states {
		name := "watch.replica"
		if i == 0 {
			name = "watch.primary"
		}
		watchers[i] = watch(tr, stage, name, st)
	}
	var recs [][]epochRec
	stopWatchers := func() {
		if recs != nil {
			return
		}
		recs = make([][]epochRec, len(watchers))
		for i, w := range watchers {
			recs[i] = w.finish()
		}
	}
	defer stopWatchers()

	const agentID = "bench-live"
	c, err := fmsnet.DialBinary(t.collector.Addr(), agentID)
	if err != nil {
		return nil, fmt.Errorf("live agent: %w", err)
	}
	defer c.Close()

	res := &liveResult{sent: n}
	var agentDone atomic.Bool
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		res.queries = runQueryClients(tr, stage, t.url, 1, seed, report.SectionIDs(), in.boot, agentDone.Load)
	}()
	var fatal error
	log := openLoop(wallClock, schedule{start: time.Now(), every: time.Second / liveRate}, n, func(i int) error {
		if fatal != nil {
			return fatal
		}
		sp := tr.begin("fmsnet.report", stage, uint64(i+1))
		_, dup, err := c.ReportFrom(in.live[i], agentID, uint64(i+1))
		tr.end(sp)
		if err != nil {
			fatal = fmt.Errorf("live report %d: %w", i+1, err)
		}
		if dup {
			res.dups++
		}
		return err
	})
	agentDone.Store(true)
	qwg.Wait()
	if fatal != nil {
		return nil, fatal
	}

	want := int64(len(in.boot) + n)
	if err := waitFor("replicas never caught up with the live ingest", func() bool {
		for _, w := range watchers {
			if w.covered.Load() < want {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	stopWatchers()

	res.acks, res.late = log.latency(), log.lateness()
	var sumAck, sumPrim, sumRepl float64
	for i := 0; i < n; i++ {
		row := len(in.boot) + i
		prim, ok := visibleAt(recs[0], row)
		if !ok {
			return nil, fmt.Errorf("correctness: live ticket %d never became visible on the primary", i+1)
		}
		var repl time.Time
		for _, r := range recs[1:] {
			if at, ok := visibleAt(r, row); ok && (repl.IsZero() || at.Before(repl)) {
				repl = at
			}
		}
		if repl.IsZero() {
			return nil, fmt.Errorf("correctness: live ticket %d never became visible on a replica", i+1)
		}
		res.fresh.add(repl.Sub(log.due[i]))
		sumAck += ms(log.done[i].Sub(log.due[i]))
		sumPrim += ms(prim.Sub(log.done[i]))
		sumRepl += ms(repl.Sub(prim))
	}
	res.segAck, res.segPrim, res.segRepl = sumAck/float64(n), sumPrim/float64(n), sumRepl/float64(n)
	for _, p := range recs[0] {
		var first time.Time
		for _, r := range recs[1:] {
			if at, ok := visibleAt(r, p.tickets-1); ok && (first.IsZero() || at.Before(first)) {
				first = at
			}
		}
		if !first.IsZero() {
			res.streamLag.add(first.Sub(p.at))
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warm touches every URL class once on each replica and once through the
// router, so the timed queries measure a tier whose caches are filled.
func warm(t *tier, in *inputs, seed int64) error {
	client := newClient()
	defer client.CloseIdleConnections()
	mix := newQueryMix(seed, report.SectionIDs(), in.boot)
	bases := []string{t.url}
	for _, n := range t.replicas {
		bases = append(bases, n.url)
	}
	for _, base := range bases {
		for class := 0; class < numClasses; class++ {
			if _, _, err := get(client, base+mix.path(class)); err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
		}
	}
	return nil
}

// stageQuery is analysts on a quiet tier: after a warm pass, closed-loop
// keep-alive clients issue the seeded mix through the router for dur.
func stageQuery(tr *tracer, t *tier, in *inputs, seed int64, clients int, dur time.Duration) (*queryLog, error) {
	if err := warm(t, in, seed); err != nil {
		return nil, err
	}
	stage := tr.begin("stage.query", -1, 0)
	defer tr.end(stage)
	deadline := time.Now().Add(dur)
	return runQueryClients(tr, stage, t.url, clients, seed+1, report.SectionIDs(), in.boot,
		func() bool { return !time.Now().Before(deadline) }), nil
}

// checkTier is the tier's Type-1 gate: the routed /report must be, byte
// for byte, the serial reference over exactly the rows its X-Epoch
// serves, and those rows must be the boot prefix plus every acked live
// ticket — none lost, none duplicated, none dropped by the feed.
func checkTier(t *tier, in *inputs, liveAcked int) error {
	if d := t.sub.Dropped(); d != 0 {
		return fmt.Errorf("correctness: collector feed dropped %d tickets", d)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	body, hdr, err := get(client, t.url+"/report")
	if err != nil {
		return err
	}
	epoch, _ := strconv.ParseUint(hdr.Get("X-Epoch"), 10, 64)
	tickets, _ := strconv.Atoi(hdr.Get("X-Tickets"))
	snap := t.primary.State().Current()
	if epoch != snap.Epoch() || tickets != snap.Tickets() {
		return fmt.Errorf("correctness: router served epoch %d with %d tickets, primary is at epoch %d with %d",
			epoch, tickets, snap.Epoch(), snap.Tickets())
	}
	if want := len(in.boot) + liveAcked; tickets != want {
		return fmt.Errorf("correctness: tier serves %d tickets, want %d boot + %d acked", tickets, len(in.boot), liveAcked)
	}
	rows, err := t.primary.State().Rows(0, tickets)
	if err != nil {
		return err
	}
	var ref bytes.Buffer
	if err := report.SerialReference(&ref, fot.NewTrace(rows), in.census, nil); err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	if !bytes.Equal(body, ref.Bytes()) {
		return fmt.Errorf("correctness: routed /report (%d bytes) differs from the serial reference (%d bytes) at epoch %d",
			len(body), ref.Len(), epoch)
	}
	return nil
}

// coldResult is the cold stage: restart and the one-shot report.
type coldResult struct {
	cold      []float64 // seconds, archive on disk → first full /report body
	full      []float64 // seconds, in-memory trace → full report bytes
	appendDur time.Duration
	archBytes int64
	dir       string
}

// waitTickets blocks until st serves n tickets, woken by Watch.
func waitTickets(st *serve.State, n int, what string) error {
	ch := st.Watch()
	defer st.Unwatch(ch)
	timeout := time.NewTimer(stageDeadline)
	defer timeout.Stop()
	for st.Current().Tickets() != n {
		select {
		case <-ch:
		case <-timeout.C:
			return fmt.Errorf("%s (%d of %d tickets)", what, st.Current().Tickets(), n)
		}
	}
	return nil
}

// coldStart is fotqueryd -archive from nothing: a fresh daemon tails the
// archive from position zero, and the clock stops at the first complete
// /report body.
func coldStart(tr *tracer, parent int, in *inputs, dir string) (time.Duration, []byte, error) {
	sp := tr.begin("cold.start", parent, 0)
	defer tr.end(sp)
	start := time.Now()
	d := serve.New(serve.Options{Census: in.census})
	d.StartIngest(serve.TailArchive(dir, archive.Position{}, 10*time.Millisecond))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), stageDeadline)
		defer cancel()
		d.Shutdown(ctx)
	}()
	fold := tr.begin("cold.tail_and_fold", sp, 0)
	err := waitTickets(d.State(), in.trace.Len(), "cold start never folded the archive")
	tr.end(fold)
	if err != nil {
		return 0, nil, err
	}
	render := tr.begin("cold.report", sp, 0)
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report", nil))
	tr.end(render)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		return 0, nil, fmt.Errorf("cold start /report: status %d: %s", rec.Code, rec.Body.String())
	}
	return elapsed, rec.Body.Bytes(), nil
}

// fullReport is fotreport's path: the whole report from the in-memory
// trace through the one-shot kernels.
func fullReport(tr *tracer, parent int, in *inputs) (time.Duration, []byte, error) {
	sp := tr.begin("report.full", parent, 0)
	defer tr.end(sp)
	var buf bytes.Buffer
	start := time.Now()
	err := report.Full(&buf, fot.BorrowTraceIndex(in.trace), in.census, 0, nil)
	return time.Since(start), buf.Bytes(), err
}

// stageCold writes the whole trace once as a binary archive, then
// alternates cold starts and one-shot reports until dur has passed (at
// least once each). Every cold /report must equal the one-shot bytes.
func stageCold(tr *tracer, in *inputs, dir string, dur time.Duration) (*coldResult, error) {
	res := &coldResult{dir: filepath.Join(dir, "archive")}
	start := time.Now()
	err := writeArchive(res.dir, archive.Options{MaxPerSegment: 1 << 16, Codec: archive.CodecBinary}, in.trace)
	if err != nil {
		return nil, err
	}
	res.appendDur = time.Since(start)
	if res.archBytes, err = dirBytes(res.dir); err != nil {
		return nil, err
	}

	stage := tr.begin("stage.cold", -1, 0)
	defer tr.end(stage)
	deadline := time.Now().Add(dur)
	for len(res.cold) == 0 || time.Now().Before(deadline) {
		coldDur, coldBody, err := coldStart(tr, stage, in, res.dir)
		if err != nil {
			return nil, err
		}
		fullDur, fullBody, err := fullReport(tr, stage, in)
		if err != nil {
			return nil, fmt.Errorf("full report: %w", err)
		}
		if !bytes.Equal(coldBody, fullBody) {
			return nil, fmt.Errorf("correctness: cold-start /report (%d bytes) differs from the one-shot report (%d bytes)",
				len(coldBody), len(fullBody))
		}
		res.cold = append(res.cold, coldDur.Seconds())
		res.full = append(res.full, fullDur.Seconds())
	}
	return res, nil
}
