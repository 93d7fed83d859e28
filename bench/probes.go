package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcfail/internal/archive"
	"dcfail/internal/core"
	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
	"dcfail/internal/predict"
	"dcfail/internal/report"
	"dcfail/internal/serve"
	"dcfail/internal/wal"
	"dcfail/internal/wire"
)

// The layer probes time calls into single layers on the run's own
// inputs. They run only in the traced run, after the stages, so they
// never share the machine with an end-to-end measurement.

// deltaRows is the size of one probe fold: what a 200 ms fold interval
// collects at the live stage's rate.
const deltaRows = liveRate / 5

// counters are the tier's own failure and retry counts. Several must be
// zero for the run's timings to mean what they claim.
type counters struct {
	rebuilds, broken, subDropped    uint64
	hedges, failovers, shed         uint64
	reconnects, dupRows, crcFailure uint64
	cacheHits, cacheMisses          uint64
}

func readCounters(t *tier) counters {
	var c counters
	for _, st := range t.states() {
		_, eng := st.IncrementalStats()
		c.rebuilds += eng.Rebuilds + st.Predictor().Stats().Rebuilds
		c.broken += uint64(len(eng.Broken))
	}
	for _, n := range t.replicas {
		s := n.syncer.Stats()
		c.reconnects += s.Reconnects
		c.dupRows += s.Dups
		c.crcFailure += s.CRCFailures
		hits, misses, _ := n.daemon.State().CacheStats()
		c.cacheHits += hits
		c.cacheMisses += misses
	}
	status := t.rt.Status()
	c.hedges, c.failovers, c.shed = status.Hedges, status.Failovers, status.Shed
	c.subDropped = t.sub.Dropped()
	return c
}

// check fails the run when the tier left the path the workloads are
// meant to measure: an engine rebuild or a broken section means rows
// arrived out of order, a dropped ticket voids freshness, and a shed
// request is a failed query the clients already counted.
func (c counters) check() error {
	switch {
	case c.rebuilds != 0:
		return fmt.Errorf("correctness: %d incremental rebuilds on an in-order schedule", c.rebuilds)
	case c.broken != 0:
		return fmt.Errorf("correctness: %d sections fell back to the full render", c.broken)
	case c.subDropped != 0:
		return fmt.Errorf("correctness: collector feed dropped %d tickets", c.subDropped)
	case c.shed != 0:
		return fmt.Errorf("correctness: router shed %d requests", c.shed)
	}
	return nil
}

// tierProbe is measured on the standing tier after the query stage,
// while its caches are still filled.
type tierProbe struct {
	directUS [numClasses]float64 // median straight to one replica
	hopUS    float64             // routed minus direct median, same URL
}

// timeGets issues n GETs and returns the median latency in microseconds.
func timeGets(tr *tracer, name string, client *http.Client, n int, url func() string) (float64, error) {
	s := &samples{}
	for i := 0; i < n; i++ {
		start := time.Now()
		sp := tr.begin(name, -1, uint64(i))
		_, _, err := get(client, url())
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		s.add(time.Since(start))
	}
	return medianInt(s.sorted()) / 1e3, nil
}

func probeTier(tr *tracer, t *tier, in *inputs, seed int64, n int) (*tierProbe, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	p := &tierProbe{}
	mix := newQueryMix(seed+2, report.SectionIDs(), in.boot)
	replica := t.replicas[0].url
	for class := 0; class < numClasses; class++ {
		us, err := timeGets(tr, "serve.get."+classNames[class], client, n, func() string { return replica + mix.path(class) })
		if err != nil {
			return nil, err
		}
		p.directUS[class] = us
	}
	const hot = "/report/table2"
	direct, err := timeGets(tr, "serve.get.section", client, n, func() string { return replica + hot })
	if err != nil {
		return nil, err
	}
	routed, err := timeGets(tr, "router.get.section", client, n, func() string { return t.url + hot })
	if err != nil {
		return nil, err
	}
	p.hopUS = routed - direct
	return p, nil
}

// timed runs fn under a span and returns how long it took.
func timed(tr *tracer, name string, fn func() error) (time.Duration, error) {
	sp := tr.begin(name, -1, 0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	tr.end(sp)
	return d, err
}

// probeLayers times the layers below the tier one by one.
func probeLayers(tr *tracer, in *inputs, dir string, n int, quick bool) (map[string]float64, error) {
	m := make(map[string]float64)
	all := in.trace.Tickets
	reps, folds, delta := 3, 10, deltaRows
	if quick {
		reps, folds, delta = 1, 3, 50
	}
	if n > len(in.all) {
		n = len(in.all)
	}

	// wire: every report of the trace through one encoder and decoder, as
	// one agent connection would carry them.
	enc, dec := wire.NewEncoder(), wire.NewDecoder()
	var stream []byte
	var wrep wire.Report
	d, _ := timed(tr, "wire.encode", func() error {
		for i, r := range in.all {
			wrep = wire.Report{
				Seq: uint64(i + 1), InWarranty: r.InWarranty, HostID: r.HostID, Hostname: r.Hostname, IDC: r.IDC,
				Rack: r.Rack, Position: r.Position, Device: r.Device, Slot: r.Slot, Type: r.Type, Time: r.Time,
				Detail: r.Detail, ProductLine: r.ProductLine, DeployTime: r.DeployTime, Model: r.Model,
			}
			stream = enc.AppendReport(stream, &wrep)
		}
		return nil
	})
	m["wire.encode_report_ns"] = float64(d) / float64(len(in.all))
	m["wire.report_bytes"] = float64(len(stream)) / float64(len(in.all))
	d, err := timed(tr, "wire.decode", func() error {
		rest := stream
		for len(rest) > 0 {
			_, payload, next, err := wire.DecodeFrame(rest)
			if err != nil {
				return err
			}
			if err := dec.DecodeReportInto(payload, &wrep); err != nil {
				return err
			}
			rest = next
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	m["wire.decode_report_ns"] = float64(d) / float64(len(in.all))

	// wal: the same records appended by one goroutine, then by two at
	// once, so the difference is what group commit buys.
	payloads := make([][]byte, n)
	for i := range payloads {
		if payloads[i], err = fot.MarshalJSONLine(all[i]); err != nil {
			return nil, err
		}
	}
	for appenders := 1; appenders <= 2; appenders++ {
		log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("probe-wal-%d", appenders)), wal.Options{})
		if err != nil {
			return nil, err
		}
		lat := make([]samples, appenders)
		errs := make([]error, appenders)
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for _, p := range payloads {
					start := time.Now()
					sp := tr.begin("wal.append", -1, 0)
					err := log.Append(p)
					tr.end(sp)
					if err != nil {
						errs[a] = err
						return
					}
					lat[a].add(time.Since(start))
				}
			}(a)
		}
		wg.Wait()
		if err := log.Close(); err != nil {
			return nil, err
		}
		merged := &samples{}
		for a := range lat {
			if errs[a] != nil {
				return nil, fmt.Errorf("wal probe: %w", errs[a])
			}
			merged.merge(&lat[a])
		}
		m[fmt.Sprintf("wal.append%d_us", appenders)] = medianInt(merged.sorted()) / 1e3
	}

	// fmsnet: one client, the same reports, without and with a WAL; the
	// difference is the wait for durability.
	for _, withWAL := range []bool{false, true} {
		name, opts := "fmsnet.rtt_nowal_us", fmsnet.CollectorOptions{}
		if withWAL {
			name, opts = "fmsnet.rtt_wal_us", fmsnet.CollectorOptions{WALDir: filepath.Join(dir, "probe-fmsnet-wal")}
		}
		col, err := fmsnet.NewCollectorWith("127.0.0.1:0", opts)
		if err != nil {
			return nil, err
		}
		log := closedLoopAgent(tr, -1, col.Addr(), "bench-probe", in.all, 0, 1, func(sent int) bool { return sent >= n })
		col.Close()
		if log.fatal != nil {
			return nil, log.fatal
		}
		m[name] = medianInt(log.acks.sorted()) / 1e3
	}

	// archive: what a cold start reads.
	var polls []float64
	for i := 0; i < reps; i++ {
		var got []fot.Ticket
		d, err := timed(tr, "archive.follow_poll", func() (err error) {
			got, err = archive.Follow(filepath.Join(dir, "cold", "archive"), archive.Position{}).Poll()
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(got) != len(all) {
			return nil, fmt.Errorf("correctness: archive follower read %d tickets, %d were written", len(got), len(all))
		}
		polls = append(polls, d.Seconds())
	}
	m["archive.follow_poll_s"] = median(polls)

	// fot: the column build a cold start pays, and the extension a fold pays.
	var builds []float64
	for i := 0; i < reps; i++ {
		d, _ := timed(tr, "fot.index_build", func() error {
			fot.ExtendTraceIndex(nil, fot.NewTrace(all)).Cols()
			return nil
		})
		builds = append(builds, d.Seconds())
	}
	m["fot.index_build_s"] = median(builds)

	// core and predict: a private engine pair folds a prefix, then delta
	// after delta, each timed on its own.
	prefix := len(all) - folds*delta
	if prefix < 1 {
		return nil, fmt.Errorf("trace of %d tickets is too short for %d probe folds of %d", len(all), folds, delta)
	}
	ids := report.SectionIDs()
	eng := core.NewIncrementalEngine(report.StandardIncrementalSections(in.census))
	pred := predict.NewEngine(predict.Options{})
	ix := fot.ExtendTraceIndex(nil, fot.NewTrace(all[:prefix:prefix]))
	eng.Advance(ix, 1)
	pred.Advance(ix, 1)
	var extend, advance, changedMS, changedN, predAdvance []float64
	inc := make(map[string][]float64)
	for f, rows := 0, prefix; f < folds; f++ {
		rows += delta
		epoch := uint64(f + 2)
		var next *fot.TraceIndex
		d, _ := timed(tr, "fot.index_extend", func() error {
			next = fot.ExtendTraceIndex(ix, fot.NewTrace(all[:rows:rows]))
			next.Cols()
			return nil
		})
		extend = append(extend, ms(d))
		var changed map[string]bool
		d, _ = timed(tr, "core.advance", func() error { changed = eng.Advance(next, epoch); return nil })
		advance = append(advance, ms(d))
		d, _ = timed(tr, "predict.advance", func() error { pred.Advance(next, epoch); return nil })
		predAdvance = append(predAdvance, ms(d))
		sum := 0.0
		for _, id := range ids {
			var buf bytes.Buffer
			var ok bool
			d, err := timed(tr, "core.try_render", func() (err error) {
				ok, err = eng.TryRender(id, epoch, next, &buf)
				return err
			})
			if err != nil || !ok {
				return nil, fmt.Errorf("core probe: section %s did not render from fold state (ok=%v): %v", id, ok, err)
			}
			inc[id] = append(inc[id], ms(d))
			if changed[id] {
				sum += ms(d)
			}
		}
		changedMS = append(changedMS, sum)
		changedN = append(changedN, float64(len(changed)))
		ix = next
	}
	m["fot.index_extend_ms"] = median(extend)
	m["core.advance_ms"] = median(advance)
	m["core.render_changed_ms"] = median(changedMS)
	m["core.sections_changed"] = median(changedN)
	m["predict.advance_ms"] = median(predAdvance)
	for _, id := range ids {
		m["core.inc_ms."+id] = median(inc[id])
	}
	if st := eng.Stats(); st.Rebuilds != 0 || len(st.Broken) != 0 {
		return nil, fmt.Errorf("core probe: %d rebuilds, broken %v on an in-order schedule", st.Rebuilds, st.Broken)
	}
	for _, sec := range report.StandardSections(in.census) {
		fresh := fot.BorrowTraceIndex(in.trace)
		fresh.Cols()
		var buf bytes.Buffer
		d, err := timed(tr, "core.oneshot", func() error { return sec.Render(fresh, &buf) })
		if err != nil {
			return nil, fmt.Errorf("core probe: one-shot %s: %w", sec.ID, err)
		}
		m["core.oneshot_ms."+sec.ID] = ms(d)
	}
	rng := rand.New(rand.NewSource(1))
	d, _ = timed(tr, "predict.score_host", func() error {
		for i := 0; i < n; i++ {
			pred.ScoreHost(all[rng.Intn(len(all))].HostID)
		}
		return nil
	})
	m["predict.score_host_ns"] = float64(d) / float64(n)
	var atrisk []float64
	for i := 0; i < reps+2; i++ {
		d, _ := timed(tr, "predict.atrisk", func() error { pred.AtRisk(20); return nil })
		atrisk = append(atrisk, ms(d))
	}
	m["predict.atrisk_ms"] = median(atrisk)
	m["predict.hosts_tracked"] = float64(pred.Stats().Hosts)

	// serve: the first epoch of a fresh state renders everything, as a
	// cold start does; later epochs fold a delta.
	var renderAll, foldMS []float64
	var st *serve.State
	for i := 0; i < reps; i++ {
		st = serve.NewState(in.census, 0)
		snap := st.Fold(all[:prefix], time.Now())
		d, err := timed(tr, "serve.render_all", func() error {
			_, err := st.RenderSections(snap, ids)
			return err
		})
		if err != nil {
			return nil, err
		}
		renderAll = append(renderAll, ms(d))
	}
	var last *serve.Snapshot
	for f, rows := 0, prefix; f < folds; f, rows = f+1, rows+delta {
		d, _ := timed(tr, "serve.fold", func() error {
			last = st.Fold(all[rows:rows+delta], time.Now())
			return nil
		})
		foldMS = append(foldMS, ms(d))
	}
	m["serve.render_all_ms"] = median(renderAll)
	m["serve.fold_ms"] = median(foldMS)
	d, err = timed(tr, "mine.index_build", func() error {
		_, err := last.MineIndex()
		return err
	})
	if err != nil {
		return nil, err
	}
	m["mine.index_build_ms"] = ms(d)

	// report: the serial reference over the whole trace, the baseline the
	// parallel one-shot report is judged against.
	d, err = timed(tr, "report.serial", func() error {
		var buf bytes.Buffer
		return report.SerialReference(&buf, in.trace, in.census, nil)
	})
	if err != nil {
		return nil, err
	}
	m["report.serial_s"] = d.Seconds()
	return m, nil
}

// layerInputs is what the set-ups, the stages and the tier measured
// along the way that the per-layer metrics are made from.
type layerInputs struct {
	gens, boots, catchups []float64 // seconds, one per set-up
	ing                   *ingestResult
	live                  *liveResult
	liveSum               querySummary
	cold                  *coldResult
	tier                  *tierProbe
	counters              counters
	stageSpans            int
}

// fillLayerMetrics adds what the stages and the tier themselves measured
// to the probes' numbers, so rep.layer holds every per-layer metric.
func fillLayerMetrics(rep *runReport, tr *tracer, in *inputs, seconds float64, r layerInputs) {
	ing, live, liveSum, cold, tp, c := r.ing, r.live, r.liveSum, r.cold, r.tier, r.counters
	m := rep.layer
	m["fms.generate_s"] = median(r.gens)
	m["serve.boot_fold_s"] = median(r.boots)
	m["replica.catchup_s"] = median(r.catchups)
	m["wal.bytes_per_record"] = float64(ing.walBytes) / float64(ing.acked)
	ackTail, _ := tail(ing.acks.sorted(), 99)
	m["fmsnet.ack_p99_us"] = float64(ackTail) / 1e3
	m["fmsnet.dup_acks"] = float64(ing.dups + live.dups)
	m["fmsnet.sub_dropped"] = float64(c.subDropped)
	m["archive.append_trace_s"] = cold.appendDur.Seconds()
	m["archive.bytes_per_ticket"] = float64(cold.archBytes) / float64(in.trace.Len())
	m["core.rebuilds"] = float64(c.rebuilds)
	m["core.broken"] = float64(c.broken)
	m["report.full_s"] = minOf(cold.full)
	if total := c.cacheHits + c.cacheMisses; total > 0 {
		m["serve.cache_hit_ratio"] = float64(c.cacheHits) / float64(total)
	}
	for class, name := range classNames {
		m["serve.direct_p50_us."+name] = tp.directUS[class]
	}
	m["replica.stream_lag_ms"] = medianInt(live.streamLag.sorted()) / 1e6
	m["replica.reconnects"] = float64(c.reconnects)
	m["replica.dup_rows"] = float64(c.dupRows)
	m["replica.crc_failures"] = float64(c.crcFailure)
	m["router.hop_us"] = tp.hopUS
	m["router.hedges"] = float64(c.hedges)
	m["router.failovers"] = float64(c.failovers)
	m["router.shed"] = float64(c.shed)
	liveAcks := live.acks.sorted()
	liveAckTail, _ := tail(liveAcks, 99)
	m["live.ack_p50_us"] = medianInt(liveAcks) / 1e3
	m["live.ack_p99_us"] = float64(liveAckTail) / 1e3
	m["live.query_qps"] = liveSum.qps
	m["live.query_p50_ms"] = liveSum.p50MS
	m["live.query_p99_ms"] = liveSum.tailMS
	m["live.report_p50_ms"] = liveSum.reportP50MS
	m["fresh.seg_ack_ms"] = live.segAck
	m["fresh.seg_primary_ms"] = live.segPrim
	m["fresh.seg_replica_ms"] = live.segRepl
	lateTail, _ := tail(live.late.sorted(), 99)
	m["gen.late_p99_ms"] = float64(lateTail) / 1e6
	cost := spanCost()
	m["trace.overhead_pct"] = 100 * float64(r.stageSpans) * cost.Seconds() / seconds
	rep.note("trace: %d spans in the stages at %d ns each", r.stageSpans, cost.Nanoseconds())
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	if len(names) > 12 {
		names = names[:12]
	}
	for _, name := range names {
		rep.note("self time %-24s %10.3f s", name, float64(self[name])/1e9)
	}

	// The parts must account for the whole.
	freshMean := 0.0
	for _, ns := range live.fresh.ns {
		freshMean += float64(ns) / 1e6
	}
	freshMean /= float64(len(live.fresh.ns))
	rep.note("freshness: segments sum to %.3f ms, mean freshness %.3f ms", live.segAck+live.segPrim+live.segRepl, freshMean)
	// The boot fold covers bootShare of the rows a cold start folds.
	parts := m["archive.follow_poll_s"] + m["serve.boot_fold_s"]/bootShare + m["serve.render_all_ms"]/1e3
	rep.note("cold start: follow poll + fold + first render = %.3f s of the median cold start's %.3f s (%.0f%%)",
		parts, median(cold.cold), 100*parts/median(cold.cold))
}
