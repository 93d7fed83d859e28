package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
	"dcfail/internal/serve"
)

// maxLoad caps the load goroutines (and so connections) of a stage: more
// than the machine has cores would only measure the harness queueing
// against itself.
func maxLoad(nproc int) int {
	if nproc < 2 {
		return 1
	}
	return 2
}

// clock lets the open-loop tests run on a fake timeline.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// schedule is an open-loop send plan: operation i is due at start +
// i*every, whatever happened to the operations before it.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// openLoopLog is what an open-loop run observed. Latency is done-due,
// not done-sent: a stall delays every later send on the connection, and
// those operations waited for the system, not for the generator.
// Lateness (sent-due) says how far behind schedule the generator ran.
type openLoopLog struct {
	due, sent, done []time.Time
	ok              []bool
}

func (l *openLoopLog) latency() *samples {
	s := &samples{}
	for i := range l.due {
		if l.ok[i] {
			s.add(l.done[i].Sub(l.due[i]))
		} else {
			s.fail()
		}
	}
	return s
}

func (l *openLoopLog) lateness() *samples {
	s := &samples{}
	for i := range l.due {
		s.add(l.sent[i].Sub(l.due[i]))
	}
	return s
}

// openLoop performs n operations on the schedule from one goroutine. It
// never sends early, and never skips: when it is behind it sends at
// once, and the lost time shows as lateness and in the latency.
func openLoop(clk clock, sch schedule, n int, op func(i int) error) *openLoopLog {
	log := &openLoopLog{
		due: make([]time.Time, n), sent: make([]time.Time, n), done: make([]time.Time, n), ok: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		due := sch.due(i)
		now := clk.now()
		if now.Before(due) {
			clk.sleep(due.Sub(now))
			now = clk.now()
		}
		log.due[i], log.sent[i] = due, now
		err := op(i)
		log.done[i], log.ok[i] = clk.now(), err == nil
	}
	return log
}

// agentLog is one closed-loop agent's run.
type agentLog struct {
	acks  samples
	dups  int
	last  time.Time // when the last ack arrived
	fatal error     // a broken connection ends the agent
}

// closedLoopAgent dials the collector as fmsd's agents do and reports
// reports[first], reports[first+step], … (wrapping around), waiting for
// each durable ack before sending the next, until stop says so given how
// many it has sent.
func closedLoopAgent(tr *tracer, parent int, addr, id string, reports []*fmsnet.Report, first, step int, stop func(sent int) bool) *agentLog {
	log := &agentLog{}
	c, err := fmsnet.DialBinary(addr, id)
	if err != nil {
		log.fatal = err
		return log
	}
	defer c.Close()
	at := first
	for seq := uint64(1); ; seq++ {
		if stop(int(seq - 1)) {
			return log
		}
		start := time.Now()
		sp := tr.begin("fmsnet.report", parent, seq)
		_, dup, err := c.ReportFrom(reports[at%len(reports)], id, seq)
		tr.end(sp)
		if err != nil {
			log.acks.fail()
			log.fatal = fmt.Errorf("agent %s report %d: %w", id, seq, err)
			return log
		}
		log.last = time.Now()
		log.acks.addAt(log.last.Sub(start), log.last)
		if dup {
			log.dups++
		}
		at += step
	}
}

// The six URL classes of the query mix and their shares in percent.
const (
	classSection = iota
	classReport
	classHosts
	classPredict
	classAtRisk
	classAlerts
	numClasses
)

var (
	classNames  = [numClasses]string{"section", "report", "hosts", "predict", "atrisk", "alerts"}
	classShares = [numClasses]int{35, 10, 20, 25, 5, 5}
)

// queryMix is one client's deterministic request sequence. Hosts come
// from uniformly drawn tickets, so a chronic host is looked up as often
// as it fails, as real lookups are.
type queryMix struct {
	rng      *rand.Rand
	sections []string
	section  int
	tickets  []fot.Ticket
}

func newQueryMix(seed int64, sections []string, tickets []fot.Ticket) *queryMix {
	return &queryMix{rng: rand.New(rand.NewSource(seed)), sections: sections, tickets: tickets}
}

func (m *queryMix) next() (class int, path string) {
	roll := m.rng.Intn(100)
	for class = 0; class < numClasses-1; class++ {
		if roll < classShares[class] {
			break
		}
		roll -= classShares[class]
	}
	return class, m.path(class)
}

func (m *queryMix) path(class int) string {
	switch class {
	case classSection:
		id := m.sections[m.section%len(m.sections)]
		m.section++
		return "/report/" + id
	case classReport:
		return "/report"
	case classHosts:
		return "/hosts/" + strconv.FormatUint(m.tickets[m.rng.Intn(len(m.tickets))].HostID, 10)
	case classPredict:
		return "/predict/" + strconv.FormatUint(m.tickets[m.rng.Intn(len(m.tickets))].HostID, 10)
	case classAtRisk:
		return "/atrisk?n=20"
	}
	return "/alerts"
}

// queryLog is what the query clients of one stage observed.
type queryLog struct {
	all     samples
	byClass [numClasses]samples
	wall    time.Duration
	start   time.Time
}

// stageSlices is how many equal time slices a stage's samples are cut
// into. The sandbox's interference only ever adds time, and it comes and
// goes within a stage, so the ingest rate and the median latencies are
// reported for the best slice; over ten runs in a noisy hour the best
// held within 5–9 % where the stage-wide figure moved 15–19 %. Tail
// percentiles need every sample and stay stage-wide.
const stageSlices = 5

func sliceRate(v []int64, d time.Duration) float64 { return float64(len(v)) / d.Seconds() }
func sliceP50(v []int64, _ time.Duration) float64  { return medianInt(v) }

// querySummary is a query log boiled down to its reported numbers.
type querySummary struct {
	qps, p50MS, tailMS, reportP50MS float64
	tailPct                         float64 // the percentile tailMS could support
	reports                         int     // answered full /report requests
}

func (q *queryLog) summary() querySummary {
	end := q.start.Add(q.wall)
	t, pct := tail(q.all.sorted(), 99)
	return querySummary{
		// Stage-wide: a slice's request rate follows how many of its
		// requests happened to be the heavy /atrisk and /hosts ones.
		qps:         float64(len(q.all.ns)) / q.wall.Seconds(),
		p50MS:       minOf(q.all.sliced(q.start, end, stageSlices, sliceP50)) / 1e6,
		tailMS:      float64(t) / 1e6,
		tailPct:     pct,
		reportP50MS: minOf(q.byClass[classReport].sliced(q.start, end, stageSlices, sliceP50)) / 1e6,
		reports:     len(q.byClass[classReport].ns),
	}
}

func (q *queryLog) merge(o *queryLog) {
	q.all.merge(&o.all)
	for c := range q.byClass {
		q.byClass[c].merge(&o.byClass[c])
	}
}

// queryClient is one closed-loop keep-alive client: it issues the mix's
// requests one after another against base until stop reports true.
func queryClient(tr *tracer, parent int, base string, mix *queryMix, stop func() bool) *queryLog {
	log := &queryLog{}
	client := newClient()
	defer client.CloseIdleConnections()
	for op := uint64(1); !stop(); op++ {
		class, path := mix.next()
		start := time.Now()
		sp := tr.begin("router.get."+classNames[class], parent, op)
		_, _, err := get(client, base+path)
		tr.end(sp)
		if err != nil {
			log.all.fail()
			log.byClass[class].fail()
			continue
		}
		end := time.Now()
		log.all.addAt(end.Sub(start), end)
		log.byClass[class].addAt(end.Sub(start), end)
	}
	return log
}

// runQueryClients drives n clients, each on its own seeded mix, until
// stop reports true, and returns their merged log.
func runQueryClients(tr *tracer, parent int, base string, n int, seed int64, sections []string, tickets []fot.Ticket, stop func() bool) *queryLog {
	logs := make([]*queryLog, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = queryClient(tr, parent, base, newQueryMix(seed+int64(i)*7919, sections, tickets), stop)
		}(i)
	}
	wg.Wait()
	out := &queryLog{wall: time.Since(start), start: start}
	for _, l := range logs {
		out.merge(l)
	}
	return out
}

// epochRec is one observed epoch advance: when the watcher woke, and how
// many rows the state served from then on.
type epochRec struct {
	at      time.Time
	tickets int
}

// watcher follows one serve.State through Watch, the same signal the
// replication stream wakes on.
type watcher struct {
	st      *serve.State
	ch      chan struct{}
	stop    chan struct{}
	done    chan struct{}
	covered atomic.Int64
	recs    []epochRec // owned by the goroutine until finish returns
}

func watch(tr *tracer, parent int, name string, st *serve.State) *watcher {
	w := &watcher{st: st, ch: st.Watch(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.ch:
				sp := tr.begin(name, parent, 0)
				rec := epochRec{at: time.Now(), tickets: st.Current().Tickets()}
				w.recs = append(w.recs, rec)
				w.covered.Store(int64(rec.tickets))
				tr.end(sp)
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// finish stops the watcher and hands over what it saw.
func (w *watcher) finish() []epochRec {
	w.st.Unwatch(w.ch)
	close(w.stop)
	<-w.done
	return w.recs
}

// visibleAt is when row first became servable: the first observed epoch
// whose row count covers it. ok is false if none did.
func visibleAt(recs []epochRec, row int) (time.Time, bool) {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if recs[mid].tickets > row {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(recs) {
		return time.Time{}, false
	}
	return recs[lo].at, true
}
