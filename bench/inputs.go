package main

import (
	"fmt"
	"sort"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fleetgen"
	"dcfail/internal/fms"
	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
)

// bootShare is how much of the trace the serving tier is booted with;
// the rest arrives live. bootIDBase lifts the boot tickets' ids above
// anything the live collector can assign, so ids never collide.
const (
	bootShare  = 0.8
	bootIDBase = uint64(1) << 40
)

// midProfile is the default scale: the small profile with eight times
// the racks, product lines and ticket budget (≈27k servers, ≈72k
// tickets). The paper profile costs ≈6 s to generate and ≈6 s to check
// against the serial reference, which does not fit the time one run is
// allowed; -profile paper runs it by hand.
func midProfile() fleetgen.Profile {
	p := fleetgen.SmallProfile()
	p.Name = "mid"
	p.FleetSpec.RacksPerDC *= 8
	p.FleetSpec.ProductLines *= 8
	p.TargetTickets *= 8
	return p
}

func profileByName(name string) (fleetgen.Profile, error) {
	switch name {
	case "small":
		return fleetgen.SmallProfile(), nil
	case "mid":
		return midProfile(), nil
	case "paper":
		return fleetgen.PaperProfile(), nil
	}
	return fleetgen.Profile{}, fmt.Errorf("unknown profile %q (want small, mid or paper)", name)
}

// inputs is everything a run is made from; the same seed gives the same
// inputs, and the layers under test see nothing else of the seed.
type inputs struct {
	census *core.Census
	trace  *fot.Trace       // the whole trace, sorted by (time, id)
	boot   []fot.Ticket     // the tier's boot fold: the first bootShare of it
	live   []*fmsnet.Report // the rest as agent reports, in time order
	all    []*fmsnet.Report // every ticket as a report, for the closed-loop agents
	genDur time.Duration    // fms.Run alone
}

func generate(profile fleetgen.Profile, seed int64) (*inputs, error) {
	start := time.Now()
	res, err := fms.Run(profile, fms.DefaultConfig(), seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &inputs{genDur: time.Since(start), census: core.CensusFromFleet(res.Fleet), trace: res.Trace}
	tk := in.trace.Tickets
	sort.SliceStable(tk, func(i, j int) bool {
		if !tk[i].Time.Equal(tk[j].Time) {
			return tk[i].Time.Before(tk[j].Time)
		}
		return tk[i].ID < tk[j].ID
	})
	// Cut where the timestamp strictly increases: a live ticket sharing
	// the last boot ticket's instant would sort before it (its collector
	// id is smaller) and force the incremental engines to rebuild.
	cut := int(bootShare * float64(len(tk)))
	for cut > 0 && cut < len(tk) && !tk[cut].Time.After(tk[cut-1].Time) {
		cut++
	}
	if cut <= 0 || cut >= len(tk) {
		return nil, fmt.Errorf("generate: trace of %d tickets leaves no live tail", len(tk))
	}
	in.boot = make([]fot.Ticket, cut)
	copy(in.boot, tk[:cut])
	for i := range in.boot {
		in.boot[i].ID = bootIDBase + uint64(i)
	}
	in.all = make([]*fmsnet.Report, len(tk))
	for i := range tk {
		in.all[i] = ticketToReport(&tk[i])
	}
	in.live = in.all[cut:]
	return in, nil
}

// ticketToReport is cmd/fmsd's bridge from a simulated ticket to what
// its host agent would have reported.
func ticketToReport(tk *fot.Ticket) *fmsnet.Report {
	return &fmsnet.Report{
		HostID:      tk.HostID,
		Hostname:    tk.Hostname,
		IDC:         tk.IDC,
		Rack:        tk.Rack,
		Position:    tk.Position,
		Device:      tk.Device.String(),
		Slot:        tk.Slot,
		Type:        tk.Type,
		Time:        tk.Time,
		Detail:      tk.Detail,
		ProductLine: tk.ProductLine,
		DeployTime:  tk.DeployTime,
		Model:       tk.Model,
		InWarranty:  tk.Category != fot.Error,
	}
}
