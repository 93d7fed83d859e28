// Livequery runs the live analytics loop end to end in one process: a
// collector accepts agent failure reports over real TCP, every accepted
// ticket streams through a collector subscription into the fotqueryd
// ingest engine, and an HTTP client queries the evolving report WHILE
// tickets are still arriving — each response is one self-consistent
// epoch, stamped with X-Epoch/X-Tickets headers, and the final epoch
// matches what a batch run over the same tickets would print.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fleetgen"
	"dcfail/internal/fms"
	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
	"dcfail/internal/serve"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Simulate the trace the agent will replay; one month keeps the
	// wire traffic short.
	res, err := fms.Run(fleetgen.SmallProfile(), fms.DefaultConfig(), 99)
	if err != nil {
		return err
	}
	month := res.Trace.Between(
		time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
	)
	fmt.Printf("replaying %d tickets through the live query pipeline\n", month.Len())

	// 2. Collector on an ephemeral port, with a ticket subscription:
	// every accepted report is handed to the daemon's ingest loop in
	// pool order, without ever blocking the agent's acks.
	collector, err := fmsnet.NewCollector("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer collector.Close()
	sub := collector.SubscribeTickets(4096)

	// 3. The query daemon folds the subscription into live epochs as the
	// tickets arrive. FoldInterval paces the other clock: how often the
	// view /report renders from may catch up with what has been folded.
	d := serve.New(serve.Options{
		Census:       core.CensusFromFleet(res.Fleet),
		FoldInterval: 50 * time.Millisecond,
		SourceDrops:  sub.Dropped,
	})
	d.StartIngest(serve.FromChannel(sub.C()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go d.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("fotqueryd api on %s\n", base)

	// 4. One agent replays the month; the main goroutine queries the
	// API mid-stream after each third of the trace.
	reports := make(chan *fmsnet.Report, 64)
	agentDone := make(chan error, 1)
	go func() {
		_, err := fmsnet.RunAgent(collector.Addr(), reports, fmsnet.DefaultAgentConfig())
		agentDone <- err
	}()
	third := (month.Len() + 2) / 3
	for i, tk := range month.Tickets {
		reports <- &fmsnet.Report{
			HostID: tk.HostID, Hostname: tk.Hostname, IDC: tk.IDC,
			Rack: tk.Rack, Position: tk.Position,
			Device: tk.Device.String(), Slot: tk.Slot, Type: tk.Type,
			Time: tk.Time, Detail: tk.Detail,
			ProductLine: tk.ProductLine, DeployTime: tk.DeployTime,
			Model:      tk.Model,
			InWarranty: tk.Category != fot.Error,
		}
		if (i+1)%third == 0 {
			time.Sleep(20 * time.Millisecond) // let the fold land
			if err := printStats(base, fmt.Sprintf("after %d reports", i+1)); err != nil {
				return err
			}
		}
	}
	close(reports)
	if err := <-agentDone; err != nil {
		return err
	}

	// 5. Wait for the tail to fold, then query the settled state: one
	// report section, the context of a live host, and the stats line.
	deadline := time.Now().Add(10 * time.Second)
	for d.State().Current().Tickets() < month.Len() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	body, err := get(base + "/report/table1")
	if err != nil {
		return err
	}
	fmt.Printf("\n%s", body)
	host := month.Tickets[0].HostID
	body, err = get(fmt.Sprintf("%s/hosts/%d", base, host))
	if err != nil {
		return err
	}
	var hostReply struct {
		Tickets     []json.RawMessage `json:"tickets"`
		SlotRepeats int               `json:"slot_repeats"`
	}
	if err := json.Unmarshal(body, &hostReply); err != nil {
		return err
	}
	fmt.Printf("\nhost %d: %d tickets on record, %d slot repeats\n",
		host, len(hostReply.Tickets), hostReply.SlotRepeats)
	if err := printStats(base, "final"); err != nil {
		return err
	}

	// 6. Drain: collector down, daemon folds what is pending and stops.
	sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

func printStats(base, label string) error {
	body, err := get(base + "/stats")
	if err != nil {
		return err
	}
	var st serve.StatsReply
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	fmt.Printf("%-18s epoch %-3d %5d tickets folded, report view at epoch %d, cache %d/%d hits\n",
		label+":", st.Epoch, st.Tickets, st.ReportEpoch, st.CacheHits, st.CacheHits+st.CacheMisses)
	return nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}
