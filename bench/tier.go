package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"dcfail/internal/fmsnet"
	"dcfail/internal/replica"
	"dcfail/internal/router"
	"dcfail/internal/serve"
)

// stageDeadline bounds every wait of the harness. A wait that runs out
// fails the run with the name of what it waited for; nothing here can
// hang.
const stageDeadline = 60 * time.Second

// subBuffer is the collector→daemon feed's buffer. The feed drops
// rather than stalls, and a dropped ticket would void the freshness
// numbers, so the buffer holds more than a fold interval of the fastest
// ingest this harness drives.
const subBuffer = 65536

// waitFor polls cond until it holds or the stage deadline passes.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(stageDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// replicaNode is one fotqueryd -sync: a daemon fed by a syncer, serving
// HTTP on its own loopback port.
type replicaNode struct {
	daemon *serve.Daemon
	syncer *replica.Syncer
	url    string
}

// tier is the whole live pipeline in one process, wired the way the
// three binaries wire it: fotqueryd -collect -replicate (collector with
// a WAL, subscription, primary daemon, replication stream), two
// fotqueryd -sync replicas, and fotrouter in front of them.
type tier struct {
	collector *fmsnet.Collector
	sub       *fmsnet.TicketSub
	primary   *serve.Daemon
	stream    *replica.Server
	replicas  []*replicaNode
	rt        *router.Router
	rtClient  *http.Client
	front     *http.Server
	url       string

	bootFold time.Duration // primary State.Fold of the boot prefix
	catchup  time.Duration // empty replicas → the primary's epoch
}

// buildTier stands the tier up and returns once the router sees every
// replica healthy at the primary's epoch. On error everything started so
// far is stopped.
func buildTier(tr *tracer, parent int, in *inputs, dir string) (t *tier, err error) {
	t = &tier{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()

	t.collector, err = fmsnet.NewCollectorWith("127.0.0.1:0", fmsnet.CollectorOptions{WALDir: filepath.Join(dir, "wal")})
	if err != nil {
		return t, fmt.Errorf("tier collector: %w", err)
	}
	t.sub = t.collector.SubscribeTickets(subBuffer)
	t.primary = serve.New(serve.Options{Census: in.census, SourceDrops: t.sub.Dropped})
	sp := tr.begin("serve.boot_fold", parent, 0)
	start := time.Now()
	t.primary.State().Fold(in.boot, time.Now())
	t.bootFold = time.Since(start)
	tr.end(sp)
	t.primary.StartIngest(serve.FromChannel(t.sub.C()))
	if _, err = serveDaemon(t.primary); err != nil {
		return t, err
	}

	t.stream, err = replica.NewServer("127.0.0.1:0", t.primary.State(), replica.ServerOptions{})
	if err != nil {
		return t, fmt.Errorf("replication stream: %w", err)
	}
	sp = tr.begin("replica.catchup", parent, 0)
	start = time.Now()
	var urls []string
	for i := 0; i < 2; i++ {
		d := serve.New(serve.Options{Census: in.census})
		sy := replica.NewSyncer(d.State(), replica.SyncerOptions{Addr: t.stream.Addr()})
		d.SetLagProbe(sy.Lag)
		sy.Start()
		node := &replicaNode{daemon: d, syncer: sy}
		t.replicas = append(t.replicas, node)
		if node.url, err = serveDaemon(d); err != nil {
			return t, err
		}
		urls = append(urls, node.url)
	}
	want := t.primary.State().Current().Epoch()
	if err = waitFor("replicas never converged", func() bool {
		for _, n := range t.replicas {
			if n.daemon.State().Current().Epoch() != want {
				return false
			}
		}
		return true
	}); err != nil {
		return t, err
	}
	t.catchup = time.Since(start)
	tr.end(sp)

	t.rtClient = newClient()
	t.rt, err = router.New(router.Options{Backends: urls, Client: t.rtClient})
	if err != nil {
		return t, fmt.Errorf("router: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, fmt.Errorf("router listen: %w", err)
	}
	t.front = &http.Server{Handler: t.rt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go t.front.Serve(ln)
	t.url = "http://" + ln.Addr().String()
	err = waitFor("router never saw the replicas healthy", func() bool {
		for _, b := range t.rt.Status().Backends {
			if !b.Healthy || b.Degraded || b.Epoch != want {
				return false
			}
		}
		return true
	})
	return t, err
}

// serveDaemon gives a daemon its loopback listener, as fotqueryd does.
func serveDaemon(d *serve.Daemon) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("daemon listen: %w", err)
	}
	go d.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// close stops every part that was started, in the binaries' shutdown
// order, and waits for each.
func (t *tier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), stageDeadline)
	defer cancel()
	if t.front != nil {
		t.front.Shutdown(ctx)
	}
	if t.rt != nil {
		t.rt.Close()
		t.rtClient.CloseIdleConnections()
	}
	for _, n := range t.replicas {
		n.syncer.Stop()
		n.daemon.Shutdown(ctx)
	}
	if t.sub != nil {
		t.sub.Close()
	}
	if t.stream != nil {
		t.stream.Close()
	}
	if t.collector != nil {
		t.collector.Close()
	}
	if t.primary != nil {
		t.primary.Shutdown(ctx)
	}
}

// states lists the primary's state first, then each replica's.
func (t *tier) states() []*serve.State {
	out := []*serve.State{t.primary.State()}
	for _, n := range t.replicas {
		out = append(out, n.daemon.State())
	}
	return out
}

// newClient is a keep-alive HTTP client with connections of its own; the
// caller closes its idle connections when done.
func newClient() *http.Client { return &http.Client{Transport: &http.Transport{}} }

// get fetches one URL and drains the body. Any status below 500 is an
// answer; a transport error, a 5xx or a shed request is a failure.
func get(c *http.Client, url string) (body []byte, hdr http.Header, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		return nil, nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, resp.Header, nil
}
