package experiments

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/baselines/mobiperf"
	"repro/internal/baselines/sniffer"
	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/sockets"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Table2Row is one run of the accuracy experiment for one destination:
// the mean RTT from tcpdump alongside MopEye, then from tcpdump
// alongside MobiPerf, and the deviations (Table 2).
type Table2Row struct {
	Name          string
	Dst           netip.AddrPort
	TcpdumpMopEye float64 // ms, ground truth during the MopEye run
	MopEye        float64 // ms, rounded to ms as the paper does
	DeltaMopEye   float64
	TcpdumpMobi   float64 // ms, ground truth during the MobiPerf run
	MobiPerf      float64
	DeltaMobiPerf float64
}

// Table2Destination describes one probe target.
type Table2Destination struct {
	Name  string
	Addr  netip.AddrPort
	Delay time.Duration // one-way
}

// Table2Options configures the accuracy experiment.
type Table2Options struct {
	Destinations []Table2Destination
	RunsPerDest  int
	ProbesPerRun int
	Seed         int64
}

// DefaultTable2Options uses the paper's three destinations at their
// reported RTT scales (Google ~4 ms, Facebook ~37 ms, Dropbox ~300 ms),
// three runs each, ten probes per run.
func DefaultTable2Options() Table2Options {
	return Table2Options{
		Destinations: []Table2Destination{
			{Name: "Google", Addr: netip.MustParseAddrPort("216.58.221.132:80"), Delay: 2200 * time.Microsecond},
			{Name: "Facebook", Addr: netip.MustParseAddrPort("31.13.79.251:80"), Delay: 18300 * time.Microsecond},
			{Name: "Dropbox", Addr: netip.MustParseAddrPort("108.160.166.126:80"), Delay: 145 * time.Millisecond},
		},
		RunsPerDest:  3,
		ProbesPerRun: 10,
		Seed:         7,
	}
}

// RunTable2 reproduces the accuracy comparison. Each run uses a fresh
// network whose one-way delay is the destination's nominal value with a
// small per-run drift, as the paper's three rows per destination show.
func RunTable2(o Table2Options) ([]Table2Row, error) {
	var rows []Table2Row
	for di, dst := range o.Destinations {
		for run := 0; run < o.RunsPerDest; run++ {
			seed := o.Seed + int64(di*100+run)
			// Per-run drift: runs in the paper differ by up to ~80%
			// for Dropbox and a few percent for Google.
			drift := 1 + 0.12*float64(run)
			delay := time.Duration(float64(dst.Delay) * drift)

			mopTruth, mopMean, err := runMopEyeAccuracy(dst, delay, o.ProbesPerRun, seed)
			if err != nil {
				return nil, err
			}
			mobiTruth, mobiMean, err := runMobiPerfAccuracy(dst, delay, o.ProbesPerRun, seed+50)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Name:          dst.Name,
				Dst:           dst.Addr,
				TcpdumpMopEye: mopTruth,
				MopEye:        mopMean,
				DeltaMopEye:   math.Abs(mopMean - mopTruth),
				TcpdumpMobi:   mobiTruth,
				MobiPerf:      mobiMean,
				DeltaMobiPerf: math.Abs(mobiMean - mobiTruth),
			})
		}
	}
	return rows, nil
}

// runMopEyeAccuracy measures one destination with the real engine,
// returning (tcpdump mean, MopEye mean) in ms. MopEye's values are
// rounded to ms as the paper's footnote describes.
func runMopEyeAccuracy(dst Table2Destination, delay time.Duration, probes int, seed int64) (truth, mean float64, err error) {
	bed, err := testbed.New(testbed.Options{
		Link: netsim.LinkParams{Delay: delay, Jitter: delay / 50},
		Servers: []netsim.ServerSpec{{
			Domain:  "",
			Addr:    dst.Addr,
			Link:    netsim.LinkParams{Delay: delay, Jitter: delay / 50},
			Handler: netsim.HTTPPingHandler(),
		}},
		SocketCosts: sockets.AndroidCosts(),
		Sniff:       true,
		Seed:        seed,
	})
	if err != nil {
		return 0, 0, err
	}
	defer bed.Close()
	bed.InstallApp(uidApp, "com.example.probe")
	for i := 0; i < probes; i++ {
		conn, err := bed.Phone.Connect(uidApp, dst.Addr, 10*time.Second)
		if err != nil {
			return 0, 0, fmt.Errorf("probe %d: %w", i, err)
		}
		conn.Close()
	}
	// Stop joins the socket-connect threads that write the records, so
	// the store is complete once the bed is closed.
	bed.Close()
	recs := bed.Store.Kind(measure.KindTCP)
	if len(recs) < probes {
		return 0, 0, fmt.Errorf("only %d/%d measurements", len(recs), probes)
	}
	var ms []float64
	for _, r := range recs {
		// The paper rounds MopEye's µs-level readings to ms.
		ms = append(ms, math.Round(r.RTT.Seconds()*1000*2)/2)
	}
	truthSamples := bed.Sniffer.RTTsTo(dst.Addr)
	return stats.Mean(truthSamples), stats.Mean(ms), nil
}

// runMobiPerfAccuracy measures one destination with the MobiPerf
// baseline over an identical link, with its own tcpdump reference.
func runMobiPerfAccuracy(dst Table2Destination, delay time.Duration, probes int, seed int64) (truth, mean float64, err error) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: delay, Jitter: delay / 50}, seed)
	defer net.Close()
	net.HandleTCP(dst.Addr, netsim.HTTPPingHandler())
	snf := sniffer.New(net)
	prov := sockets.NewProvider(net, clk, testbed.PhoneWANAddr, sockets.AndroidCosts(), seed+1)
	pinger := mobiperf.New(prov, clk, mobiperf.V340(), seed+2)
	samples, err := pinger.PingN(dst.Addr, probes)
	if err != nil {
		return 0, 0, err
	}
	return stats.Mean(snf.RTTsTo(dst.Addr)), stats.Mean(samples), nil
}

// RenderTable2 renders rows in the paper's layout.
func RenderTable2(rows []Table2Row) string {
	header := []string{"Destination", "tcpdump", "MopEye", "δ", "tcpdump", "MobiPerf", "δ"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%s (%s)", r.Name, r.Dst.Addr()),
			fmt.Sprintf("%.2f", r.TcpdumpMopEye),
			fmt.Sprintf("%.1f", r.MopEye),
			fmt.Sprintf("%.2f", r.DeltaMopEye),
			fmt.Sprintf("%.2f", r.TcpdumpMobi),
			fmt.Sprintf("%.1f", r.MobiPerf),
			fmt.Sprintf("%.2f", r.DeltaMobiPerf),
		})
	}
	return renderTable(header, cells)
}
