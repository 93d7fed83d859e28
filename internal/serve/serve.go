// Package serve is the live analytics service behind cmd/fotqueryd: it
// tails a ticket source (an fmsd archive directory, a collector
// subscription, or a frozen trace) and keeps the paper's full statistics
// warm and queryable over HTTP while tickets stream in.
//
// Three pieces:
//
//   - State: an epoch-based copy-on-append snapshot model over
//     fot.TraceIndex — one ingest goroutine folds ticket batches into
//     the next epoch as they arrive, at O(batch) cost; readers always
//     see an immutable, self-consistent index (every section of one
//     response is computed from the same ticket prefix).
//   - The report view and its result cache keyed by section id: the
//     snapshot /report renders from follows Current on its own clock
//     (Options.FoldInterval), so repeated queries for Tables I–VIII /
//     Figs. 2–11 / hypotheses / trend are served from memory; a view
//     advance keeps the sections the delta left unchanged, and the rest
//     are recomputed in parallel through core.Runner over
//     report.StandardSections.
//   - An HTTP (JSON + text) API: /report, /report/{section},
//     /hosts/{id}, /alerts, /healthz and /stats, with per-request
//     timeouts, bounded concurrency and graceful drain.
package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
	"dcfail/internal/predict"
)

// Options configures a Daemon. The zero value of every field has a
// usable default except Census, which the report sections need.
type Options struct {
	// Census is the asset view the population-normalized sections
	// (Fig. 6, Table IV, Fig. 8, verdicts) join against.
	Census *core.Census
	// Workers caps parallel section recomputation; <= 0 means one per
	// CPU.
	Workers int
	// FoldInterval is how often the report view — the snapshot /report
	// and /report/{section} render from — may catch up with the folded
	// tickets (default 200ms). Folding is cheap and happens as tickets
	// arrive; the interval exists so a steady trickle of tickets does not
	// invalidate the section cache on every single ticket. A report is
	// never staler than this: a view older than the interval catches up
	// on the next request.
	FoldInterval time.Duration
	// FoldBatch folds early once this many tickets are pending
	// (default 8192).
	FoldBatch int
	// MaxConcurrent bounds in-flight HTTP requests (default 64).
	MaxConcurrent int
	// RequestTimeout bounds one request end to end (default 30s).
	RequestTimeout time.Duration
	// AlertWindow / AlertThreshold tune the streaming batch detector
	// feeding /alerts (defaults: mine.NewBatchDetector's 3h / 20).
	AlertWindow    time.Duration
	AlertThreshold int
	// SourceDrops, when set, is surfaced in /stats as the ingest
	// source's drop counter (e.g. fmsnet.TicketSub.Dropped). The daemon
	// tracks a high-water mark over the probe, so the exported counter is
	// monotonic even if the source is swapped or reset underneath it.
	SourceDrops func() uint64
	// DegradedAfter is the source-lag threshold for /healthz: when the
	// oldest pending (unfolded) ticket — or, with a lag probe installed,
	// the replication stream — has been waiting longer than this, the
	// endpoint reports status "degraded" with 503 so a router can fail
	// over. 0 disables lag-based degradation (always "ok" while the
	// ingest loop is healthy).
	DegradedAfter time.Duration
	// Now supplies fold timestamps and /stats lag measurements (nil
	// means time.Now), mirroring fmsnet.CollectorOptions.Now: inject a
	// fake clock to make fold timing and ingest lag deterministic in
	// tests.
	Now func() time.Time
	// Predict, when set, configures the streaming risk-scoring engine
	// behind /predict/{host} and /atrisk (nil keeps predict.Options
	// defaults: 240h window, logistic scorer).
	Predict *predict.Options
}

// maxAlerts caps the /alerts ring buffer.
const maxAlerts = 256

// foldSpacing is the least time between two folds of a busy source. The
// first ticket after a quiet spell folds at once; what arrives within
// foldSpacing of that fold waits for the spacing to run out and folds as
// one epoch, so a burst costs one fold, one replica marker and one
// watcher wake-up, not one per ticket. Measured on bench mixed_live (1000
// tickets/s, two replicas, two cores, seed 42; fresh_p50_ms /
// live.query_qps): 5ms gave 5.0 / 1,250, 10ms 7.7 / 1,230, 20ms 13.2 /
// 1,270 — the spacing is about half of fresh_p50_ms and, with nothing
// memoized per epoch, the query client beside ingest does not feel it.
// 10ms keeps a frame's worth of freshness at half the epochs (stream
// markers, wake-ups) of 5ms; a ranking memoized per epoch (ROADMAP 5a)
// would pay for every epoch and wants it no shorter.
const foldSpacing = 10 * time.Millisecond

// Daemon is the live query service: ingest loop + HTTP handlers around
// one State.
type Daemon struct {
	opts  Options
	state *State
	now   func() time.Time

	detMu    sync.Mutex
	detector *mine.BatchDetector
	alerts   []mine.BatchAlert
	alertN   uint64 // lifetime count (ring may have evicted)

	pending atomic.Int64
	// pendingSince is when the oldest pending ticket arrived (unix nanos
	// of the injected clock; 0 while nothing is pending).
	pendingSince atomic.Int64
	ingested     atomic.Uint64
	drained      atomic.Bool
	ingestErr    atomic.Pointer[string]
	dropsHW      atomic.Uint64 // high-water mark over Options.SourceDrops
	lagProbe     atomic.Pointer[func() time.Duration]

	// after arms the ingest loop's spacing timer (time.After; tests hold
	// the fold back by substituting a channel they fire themselves).
	after        func(time.Duration) <-chan time.Time
	ingestCancel context.CancelFunc
	ingestDone   chan struct{}

	sem     chan struct{}
	handler http.Handler
	srv     *http.Server
}

// New builds a daemon over an empty epoch-0 state. Start ingestion with
// StartIngest, then serve HTTP via Serve/ListenAndServe or wire
// Handler() into a server of your own.
func New(opts Options) *Daemon {
	if opts.FoldInterval <= 0 {
		opts.FoldInterval = 200 * time.Millisecond
	}
	if opts.FoldBatch <= 0 {
		opts.FoldBatch = 8192
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 64
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	d := &Daemon{
		opts:     opts,
		state:    NewState(opts.Census, opts.Workers),
		now:      opts.Now,
		detector: mine.NewBatchDetector(opts.AlertWindow, opts.AlertThreshold),
		after:    time.After,
		sem:      make(chan struct{}, opts.MaxConcurrent),
	}
	if d.now == nil {
		//lint:ignore walltime injection-point default; Options.Now overrides the clock for deterministic fold timing
		d.now = time.Now
	}
	if opts.Predict != nil {
		d.state.SetPredictor(*opts.Predict)
	}
	d.handler = d.buildHandler()
	return d
}

// State exposes the underlying snapshot state (tests, embedders).
func (d *Daemon) State() *State { return d.state }

// SetLagProbe overrides the /healthz lag measurement with an external
// source — a replica daemon installs its syncer's replication lag here,
// so "behind the primary" degrades health exactly like "behind the
// ingest queue" does on a primary. Safe to call after New, before or
// while serving.
func (d *Daemon) SetLagProbe(probe func() time.Duration) {
	d.lagProbe.Store(&probe)
}

// lag reports how far behind the daemon's published state is: the
// installed lag probe if any, else the ingest lag.
func (d *Daemon) lag() time.Duration {
	if p := d.lagProbe.Load(); p != nil {
		return (*p)()
	}
	return d.ingestLag()
}

// ingestLag is how long the oldest pending (unfolded) ticket has been
// waiting, measured from its arrival; 0 when nothing is pending.
func (d *Daemon) ingestLag() time.Duration {
	since := d.pendingSince.Load()
	if since == 0 {
		return 0
	}
	return d.now().Sub(time.Unix(0, since))
}

// sourceDrops returns the monotonic high-water mark over the configured
// drop probe. A probe that goes backwards (source swap, reset) can never
// make the exported counter regress.
func (d *Daemon) sourceDrops() uint64 {
	if d.opts.SourceDrops == nil {
		return d.dropsHW.Load()
	}
	v := d.opts.SourceDrops()
	for {
		cur := d.dropsHW.Load()
		if v <= cur {
			return cur
		}
		if d.dropsHW.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// Drained reports whether a finite ingest source has been fully folded.
func (d *Daemon) Drained() bool { return d.drained.Load() }

// StartIngest launches the ingest goroutine: it pulls batches from src,
// feeds the streaming batch detector, and folds tickets into a new epoch
// as they arrive — at once after a quiet spell, otherwise foldSpacing
// after the previous fold or at FoldBatch pending, whichever is first.
// Call once; Shutdown stops it.
func (d *Daemon) StartIngest(src TicketSource) {
	ctx, cancel := context.WithCancel(context.Background())
	d.ingestCancel = cancel
	d.ingestDone = make(chan struct{})
	go d.ingest(ctx, src)
}

// pollResult is one pump delivery: a batch and/or a terminal error.
type pollResult struct {
	batch []fot.Ticket
	err   error
}

func (d *Daemon) ingest(ctx context.Context, src TicketSource) {
	defer close(d.ingestDone)

	// The pump turns the blocking Poll into a channel the fold loop can
	// select against alongside its spacing timer.
	pump := make(chan pollResult)
	go func() {
		defer close(pump)
		for {
			batch, err := src.Poll(ctx)
			select {
			case pump <- pollResult{batch: batch, err: err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	var (
		pending  []fot.Ticket
		lastFold time.Time        // zero until the first fold
		spacing  <-chan time.Time // armed while pending waits out foldSpacing
	)
	fold := func() {
		spacing = nil
		if len(pending) == 0 {
			return
		}
		lastFold = d.now()
		d.state.Fold(pending, lastFold)
		d.ingested.Add(uint64(len(pending)))
		pending = nil
		d.pending.Store(0)
		d.pendingSince.Store(0)
	}
	observe := func(batch []fot.Ticket) {
		d.detMu.Lock()
		defer d.detMu.Unlock()
		for _, t := range batch {
			if a := d.detector.Observe(t); a != nil {
				d.alertN++
				d.alerts = append(d.alerts, *a)
				if len(d.alerts) > maxAlerts {
					d.alerts = d.alerts[len(d.alerts)-maxAlerts:]
				}
			}
		}
	}

	for {
		select {
		case res, ok := <-pump:
			if !ok {
				fold()
				return
			}
			if len(res.batch) > 0 {
				observe(res.batch)
				pending = append(pending, res.batch...)
			}
			if res.err != nil {
				fold()
				switch {
				case errors.Is(res.err, io.EOF):
					d.drained.Store(true)
				case errors.Is(res.err, context.Canceled):
					// Shutdown path, not a source failure.
				default:
					msg := res.err.Error()
					d.ingestErr.Store(&msg)
				}
				return
			}
			now := d.now()
			wait := foldSpacing - now.Sub(lastFold)
			if len(pending) == 0 || len(pending) >= d.opts.FoldBatch || lastFold.IsZero() || wait <= 0 {
				fold()
				continue
			}
			// Inside the spacing: the tickets wait, and are counted as
			// pending only now that they do.
			if spacing == nil {
				spacing = d.after(min(wait, foldSpacing))
				d.pendingSince.Store(now.UnixNano())
			}
			d.pending.Store(int64(len(pending)))
		case <-spacing:
			fold()
		case <-ctx.Done():
			fold()
			return
		}
	}
}

// Alerts returns the recent batch alerts (newest last) and the lifetime
// alert count.
func (d *Daemon) Alerts() ([]mine.BatchAlert, uint64) {
	d.detMu.Lock()
	defer d.detMu.Unlock()
	out := make([]mine.BatchAlert, len(d.alerts))
	copy(out, d.alerts)
	return out, d.alertN
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (d *Daemon) Serve(ln net.Listener) error {
	d.srv = &http.Server{
		Handler:           d.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return d.srv.Serve(ln)
}

// ListenAndServe binds addr and serves until Shutdown.
func (d *Daemon) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Shutdown stops ingestion (folding whatever is pending), then drains
// the HTTP server gracefully: in-flight requests finish, new ones are
// refused.
func (d *Daemon) Shutdown(ctx context.Context) error {
	if d.ingestCancel != nil {
		d.ingestCancel()
		select {
		case <-d.ingestDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if d.srv != nil {
		return d.srv.Shutdown(ctx)
	}
	return nil
}
