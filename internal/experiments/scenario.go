package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/crowd"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// This file is the scenario matrix: adverse network-condition profiles
// crossed with trace-driven workloads, each cell a few phones whose
// measurements are checked for truthfulness against the injected
// physics. It answers the question the paper's deployment could only
// assume away: when the network misbehaves — loss, bufferbloat,
// handover, dead resolvers — does MopEye's opportunistic pipeline
// still report what the network actually did?
//
// Per cell, a handful of clean-baseline phones and one planted phone
// on the adverse profile run the same workload concurrently, each on
// its own testbed.Bed. The cell then asserts:
//
//   - the planted phone's measured TCP RTT median lands inside the
//     profile's truthfulness envelope (injected RTT + jitter + slack);
//   - same for the DNS median when the profile bounds it;
//   - datagram accounting is exact: every datagram the phone stack
//     sent is in exactly one engine counter (DNSMeasurements +
//     DNSTimeouts + UDPRelayed + UDPNoResponse + UDPDropped) — drops
//     are counted, never silent;
//   - every TCP measurement stays attributed to the installed app;
//   - the §4.2 crowd analysis over the cell's merged records ranks the
//     planted ISP slowest (where the profile separates from clean).

// ScenarioMatrixOptions configures RunScenarioMatrix.
type ScenarioMatrixOptions struct {
	// Profiles are condition-profile names (scenarioProfileNames);
	// empty means all.
	Profiles []string
	// Workloads are workload-generator names (workloadNames); empty
	// means all.
	Workloads []string
	// PhonesPerCell is the phone count per cell: PhonesPerCell-1
	// clean phones plus one planted on the adverse profile. Default 3,
	// minimum 2.
	PhonesPerCell int
	// CellDuration bounds each phone's workload. Default 2s.
	CellDuration time.Duration
	// Seed drives all randomness. Default 1.
	Seed int64
}

func (o ScenarioMatrixOptions) withDefaults() (ScenarioMatrixOptions, error) {
	if len(o.Profiles) == 0 {
		o.Profiles = scenarioProfileNames()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workloadNames()
	}
	for _, p := range o.Profiles {
		if _, ok := scenarioProfiles[p]; !ok {
			return o, fmt.Errorf("experiments: unknown profile %q (have %v)", p, scenarioProfileNames())
		}
	}
	for _, w := range o.Workloads {
		if _, ok := workloadRegistry[w]; !ok {
			return o, fmt.Errorf("experiments: unknown workload %q (have %v)", w, workloadNames())
		}
	}
	if o.PhonesPerCell == 0 {
		o.PhonesPerCell = 3
	}
	if o.PhonesPerCell < 2 {
		return o, fmt.Errorf("experiments: PhonesPerCell %d, need >= 2 (clean baseline + planted)", o.PhonesPerCell)
	}
	if o.CellDuration <= 0 {
		o.CellDuration = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// ScenarioCell is one profile x workload cell's outcome.
type ScenarioCell struct {
	Profile  string
	Workload string
	Records  int

	// Planted-phone truth: measured medians against the profile's
	// envelope (milliseconds). DNS fields are zero when the profile
	// carries no DNS envelope.
	TCPMedianMS      float64
	TCPSamples       int
	TCPLoMS, TCPHiMS float64
	DNSMedianMS      float64
	DNSSamples       int
	DNSLoMS, DNSHiMS float64

	// Datagram accounting on the planted phone: Sent is the phone
	// stack's ground truth, Accounted the sum of the engine's terminal
	// counters. Truthful means equal.
	DatagramsSent      int64
	DatagramsAccounted int64

	// RankedSlowest reports whether the §4.2 per-ISP ranking put the
	// adverse phone's ISP last (only meaningful when Ranked).
	Ranked        bool
	RankedSlowest bool

	// Failures are this cell's truthfulness violations; empty means the
	// cell passed.
	Failures []string
}

// ScenarioResult is a completed matrix run.
type ScenarioResult struct {
	Cells []ScenarioCell
}

// Failures flattens every cell's truthfulness violations, prefixed
// with the cell coordinates. Empty means the whole matrix passed.
func (r *ScenarioResult) Failures() []string {
	var out []string
	for _, c := range r.Cells {
		for _, f := range c.Failures {
			out = append(out, fmt.Sprintf("[%s x %s] %s", c.Profile, c.Workload, f))
		}
	}
	return out
}

// String renders the matrix as the table `paperbench -exp scenarios`
// prints.
func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-6s %7s %9s %17s %17s %11s %6s %s\n",
		"profile", "wl", "records", "tcp med", "tcp envelope", "dns med/env", "sent=acct", "rank", "ok")
	for _, c := range r.Cells {
		env := fmt.Sprintf("[%.0f,%.0f]", c.TCPLoMS, c.TCPHiMS)
		dns := "-"
		if c.DNSHiMS > 0 {
			dns = fmt.Sprintf("%.1f [%.0f,%.0f]", c.DNSMedianMS, c.DNSLoMS, c.DNSHiMS)
		}
		acct := fmt.Sprintf("%d=%d", c.DatagramsSent, c.DatagramsAccounted)
		rank := "-"
		if c.Ranked {
			rank = "no"
			if c.RankedSlowest {
				rank = "yes"
			}
		}
		ok := "PASS"
		if len(c.Failures) > 0 {
			ok = "FAIL: " + strings.Join(c.Failures, "; ")
		}
		fmt.Fprintf(&b, "%-15s %-6s %7d %7.1fms %17s %17s %11s %6s %s\n",
			c.Profile, c.Workload, c.Records, c.TCPMedianMS, env, dns, acct, rank, ok)
	}
	return b.String()
}

// scenarioSpec couples a condition profile with the crowd-metadata
// stamp its planted phone reports and how its cell is ranked.
type scenarioSpec struct {
	prof    func() netsim.ConditionProfile
	netType string
	isp     string
	// rankKind is the §4.2 metric the cell ranks ISPs by.
	rankKind measure.Kind
	// rankable is false when the profile does not separate from the
	// clean baseline on any median (clean itself, or a regime whose
	// only signature is timeouts).
	rankable bool
	// minTCP overrides the minimum TCP sample count the envelope check
	// demands (0 means the default). The blackhole regime spends most
	// of its run burning resolver timeouts, so it proves TCP survives
	// with fewer samples.
	minTCP int
}

var scenarioProfiles = map[string]scenarioSpec{
	"clean-wifi":     {prof: netsim.ProfileWiFi, netType: "WiFi", isp: "clean-net", rankKind: measure.KindTCP, rankable: false},
	"lossy-cellular": {prof: netsim.ProfileLossyCellular, netType: "LTE", isp: "slow-cell", rankKind: measure.KindTCP, rankable: true},
	"bufferbloat":    {prof: netsim.ProfileBufferbloat, netType: "WiFi", isp: "bloat-net", rankKind: measure.KindTCP, rankable: true},
	"asym-uplink":    {prof: netsim.ProfileAsymmetricUplink, netType: "WiFi", isp: "adsl-net", rankKind: measure.KindTCP, rankable: true},
	"handover":       {prof: netsim.ProfileHandover, netType: "LTE", isp: "edge-cell", rankKind: measure.KindTCP, rankable: true},
	"dns-flaky":      {prof: netsim.ProfileDNSFlaky, netType: "LTE", isp: "flaky-dns", rankKind: measure.KindDNS, rankable: true},
	// The blackhole's signature is timeouts and exact drop accounting,
	// not a shifted median: its TCP path is nearly clean, and it
	// produces no DNS measurements to rank.
	"dns-blackhole": {prof: netsim.ProfileDNSBlackhole, netType: "LTE", isp: "dead-dns", rankKind: measure.KindTCP, rankable: false, minTCP: 1},
}

// defaultMinTCPSamples is the sample floor for the TCP envelope check:
// short cells with long-lived-connection workloads yield only a
// handful of connects, and the profiles' envelopes are wide enough
// that a small-sample median is still a meaningful truthfulness check.
const defaultMinTCPSamples = 2

// scenarioProfileNames lists the condition profiles the matrix knows,
// sorted.
func scenarioProfileNames() []string {
	names := make([]string, 0, len(scenarioProfiles))
	for n := range scenarioProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The cell topology: three echo servers, two behind domains (so DNS is
// on the path) and one visited by literal address (so TCP traffic
// survives a dead resolver).
var (
	cellServerAddrs = []string{"203.0.113.10:443", "203.0.113.11:443", "203.0.113.12:443"}
	cellSites       = []string{"web.cell.test:443", "api.cell.test:443", "203.0.113.12:443"}
)

func cellServers() []netsim.ServerSpec {
	return []netsim.ServerSpec{
		testbed.EchoServer("web.cell.test", cellServerAddrs[0], 10*time.Millisecond),
		testbed.EchoServer("api.cell.test", cellServerAddrs[1], 10*time.Millisecond),
		testbed.EchoServer("raw.cell.test", cellServerAddrs[2], 10*time.Millisecond),
	}
}

func cellServerIPs() []netip.Addr {
	ips := make([]netip.Addr, len(cellServerAddrs))
	for i, a := range cellServerAddrs {
		ips[i] = netip.MustParseAddrPort(a).Addr()
	}
	return ips
}

const (
	cellUID = 10001
	cellApp = "com.example.scenario"
	// cleanISP stamps the baseline phones' records.
	cleanISP     = "clean-net"
	cleanNetType = "WiFi"
)

// phoneCapture is the truth read off one phone after its workload,
// while the engine still runs, plus the records its store holds once
// the bed is closed.
type phoneCapture struct {
	device  string
	settled bool
	sent    int64
	stats   engine.Stats
	tcp     []measure.Record
	dns     []measure.Record
	records []measure.Record
}

// RunScenarioMatrix runs profiles x workloads and checks each cell's
// measurements for truthfulness against the injected conditions. The
// returned result always covers every cell; per-cell violations are in
// ScenarioCell.Failures (and aggregated by Failures()), not an error —
// the error covers only setup-level problems.
func RunScenarioMatrix(ctx context.Context, o ScenarioMatrixOptions) (*ScenarioResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{}
	cellIdx := 0
	for _, pname := range o.Profiles {
		for _, wname := range o.Workloads {
			cell, err := runScenarioCell(ctx, o, pname, wname, cellIdx)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
			cellIdx++
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
		}
	}
	return res, nil
}

func runScenarioCell(ctx context.Context, o ScenarioMatrixOptions, pname, wname string, cellIdx int) (ScenarioCell, error) {
	spec := scenarioProfiles[pname]
	adverse := spec.prof()
	clean := netsim.ProfileWiFi()

	cell := ScenarioCell{
		Profile:  pname,
		Workload: wname,
		TCPLoMS:  durMS(adverse.RTTLo),
		TCPHiMS:  durMS(adverse.RTTHi),
		DNSLoMS:  durMS(adverse.DNSLo),
		DNSHiMS:  durMS(adverse.DNSHi),
	}
	fail := func(format string, args ...any) {
		cell.Failures = append(cell.Failures, fmt.Sprintf(format, args...))
	}

	// Short relay timeouts keep blackhole cells fast: the engine-side
	// DNS wait and the UDP response window bound how long accounting
	// takes to settle after the workload stops.
	cfg := engine.Default()
	cfg.DNSTimeout = 800 * time.Millisecond
	cfg.UDPTimeout = 250 * time.Millisecond

	captures := make([]*phoneCapture, o.PhonesPerCell)
	errs := make([]error, o.PhonesPerCell)
	var wg sync.WaitGroup
	for i := range captures {
		prof := clean
		if i == o.PhonesPerCell-1 {
			prof = adverse
		}
		seed := o.Seed + int64(cellIdx)*100 + int64(i)
		wl, err := workloadByName(wname, workloadOptions{
			Sites:    cellSites,
			UID:      cellUID,
			Duration: o.CellDuration,
			Seed:     seed,
		})
		if err != nil {
			wg.Wait()
			return cell, err
		}
		device := fmt.Sprintf("cell%d-%s-%s-%d", cellIdx, pname, wname, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			captures[i], errs[i] = runCellPhone(ctx, device, &cfg, seed, prof, wl)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fail("phones: %v", err)
	}

	// Planted-phone truthfulness.
	planted := captures[o.PhonesPerCell-1]
	if planted == nil {
		fail("planted phone produced no capture")
		return cell, nil
	}
	st := planted.stats
	cell.TCPSamples = len(planted.tcp)
	cell.DNSSamples = len(planted.dns)
	cell.TCPMedianMS = measure.MedianRTT(planted.tcp)
	cell.DNSMedianMS = measure.MedianRTT(planted.dns)
	cell.DatagramsSent = planted.sent
	cell.DatagramsAccounted = accounted(st)

	minTCP := spec.minTCP
	if minTCP == 0 {
		minTCP = defaultMinTCPSamples
	}
	if cell.TCPSamples < minTCP {
		fail("only %d TCP measurements on the planted phone, want >= %d", cell.TCPSamples, minTCP)
	} else if cell.TCPMedianMS < cell.TCPLoMS || cell.TCPMedianMS > cell.TCPHiMS {
		fail("TCP median %.1fms outside envelope [%.0f, %.0f]ms", cell.TCPMedianMS, cell.TCPLoMS, cell.TCPHiMS)
	}
	if cell.DNSHiMS > 0 {
		// One sample is enough for the envelope check — the envelope
		// already spans the full two-way jitter — and short-cycle
		// workloads on a lossy resolver legitimately land few.
		if cell.DNSSamples < 1 {
			fail("no DNS measurements on the planted phone")
		} else if cell.DNSMedianMS < cell.DNSLoMS || cell.DNSMedianMS > cell.DNSHiMS {
			fail("DNS median %.1fms outside envelope [%.0f, %.0f]ms", cell.DNSMedianMS, cell.DNSLoMS, cell.DNSHiMS)
		}
	}
	if !planted.settled {
		fail("datagram accounting never settled: sent %d, accounted %d (dnsM %d + dnsTO %d + relayed %d + noResp %d + dropped %d)",
			planted.sent, accounted(st), st.DNSMeasurements, st.DNSTimeouts, st.UDPRelayed, st.UDPNoResponse, st.UDPDropped)
	}
	if pname == "dns-blackhole" {
		if st.DNSMeasurements != 0 {
			fail("blackhole produced %d DNS measurements, want 0", st.DNSMeasurements)
		}
		if st.DNSTimeouts+st.UDPDropped == 0 {
			fail("blackhole counted no DNS timeouts or drops")
		}
	}
	for _, m := range planted.tcp {
		if m.App != cellApp {
			fail("TCP measurement attributed to %q, want %q", m.App, cellApp)
			break
		}
	}
	// Every phone must account exactly, not just the planted one.
	for i, c := range captures {
		if c == nil {
			fail("phone %d produced no capture", i)
		} else if !c.settled {
			fail("phone %d accounting never settled", i)
		}
	}

	// §4.2 crowd view: stamp each phone's records with its network
	// metadata and rank ISPs by the cell's metric.
	stamped := stampRecords(captures, spec)
	cell.Records = len(stamped)
	if spec.rankable {
		cell.Ranked = true
		rows := crowd.ISPMedians(crowd.Ingest(stamped), spec.rankKind)
		switch {
		case len(rows) < 2:
			fail("crowd ranking has %d ISPs, want 2", len(rows))
		case rows[0].Name != spec.isp:
			fail("crowd ranking puts %q slowest (%.1fms), want planted %q", rows[0].Name, rows[0].MedianMS, spec.isp)
		default:
			cell.RankedSlowest = true
		}
	}
	return cell, nil
}

// runCellPhone is one phone of a cell on its own bed, built with the
// links and seeds of a default simulated phone (30 ms default path,
// 15 ms to the resolver): apply the profile, run the workload, capture
// the ground truth, and keep the records the closed bed's store holds.
func runCellPhone(ctx context.Context, device string, cfg *engine.Config, seed int64,
	prof netsim.ConditionProfile, wl func(context.Context, *testbed.Bed) error) (*phoneCapture, error) {
	bed, err := testbed.New(testbed.Options{
		Engine:  cfg,
		Link:    netsim.LinkParams{Delay: 15 * time.Millisecond},
		DNSLink: &netsim.LinkParams{Delay: 7500 * time.Microsecond},
		Servers: cellServers(),
		Seed:    seed,
	})
	if err != nil {
		return nil, fmt.Errorf("phone %q: %w", device, err)
	}
	bed.InstallApp(cellUID, cellApp)
	stop := netsim.ApplyProfile(bed.Net, prof, cellServerIPs(), testbed.DNSAddr.Addr())
	werr := wl(ctx, bed)
	c := capturePhone(bed)
	stop()
	bed.Close()
	c.device = device
	c.records = bed.Store.Snapshot()
	if werr != nil {
		return c, fmt.Errorf("phone %q: %w", device, werr)
	}
	return c, nil
}

// capturePhone reads one bed's ground truth after its workload: the
// phone-stack datagram counter, the engine counters (polled until the
// accounting identity settles — in-flight relays need their timeout to
// land in a terminal counter), and the measurement snapshots.
func capturePhone(bed *testbed.Bed) *phoneCapture {
	c := &phoneCapture{}
	deadline := time.Now().Add(3 * time.Second)
	for {
		c.sent = bed.Phone.UDPDatagramsSent()
		c.stats = bed.Eng.Stats()
		if accounted(c.stats) == c.sent {
			c.settled = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.tcp = bed.Store.Kind(measure.KindTCP)
	c.dns = bed.Store.Kind(measure.KindDNS)
	return c
}

// accounted sums the terminal per-datagram counters: every datagram
// the phone stack injected must end in exactly one of them.
func accounted(s engine.Stats) int64 {
	return int64(s.DNSMeasurements + s.DNSTimeouts + s.UDPRelayed + s.UDPNoResponse + s.UDPDropped)
}

// stampRecords merges the phones' records and fills in the crowd
// metadata the live engine does not know (a real deployment reads it
// off the modem): each record's device, then the clean baseline
// network for clean phones and the adverse one for the planted phone
// (the last capture).
func stampRecords(captures []*phoneCapture, spec scenarioSpec) []measure.Record {
	var out []measure.Record
	for i, c := range captures {
		if c == nil {
			continue
		}
		netType, isp := cleanNetType, cleanISP
		if i == len(captures)-1 {
			netType, isp = spec.netType, spec.isp
		}
		for _, r := range c.records {
			r.Device, r.NetType, r.ISP, r.Country = c.device, netType, isp, "Simland"
			out = append(out, r)
		}
	}
	return out
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
