package experiments

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/baselines/haystack"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// Table3Result holds the speedtest throughputs (Mbps) of Table 3:
// direct (no relay), through MopEye, and through the Haystack-style
// baseline, with deltas from the direct baseline.
type Table3Result struct {
	BaselineDown, BaselineUp float64
	MopEyeDown, MopEyeUp     float64
	HaystackDown, HaystackUp float64
}

// DeltaMopEyeDown and friends report the overhead rows.
func (r *Table3Result) DeltaMopEyeDown() float64   { return r.BaselineDown - r.MopEyeDown }
func (r *Table3Result) DeltaMopEyeUp() float64     { return r.BaselineUp - r.MopEyeUp }
func (r *Table3Result) DeltaHaystackDown() float64 { return r.BaselineDown - r.HaystackDown }
func (r *Table3Result) DeltaHaystackUp() float64   { return r.BaselineUp - r.HaystackUp }

// Table3Options configures the speedtest.
type Table3Options struct {
	// LinkMbps is the dedicated WiFi's rate (the paper's network held
	// ~25 Mbps both ways).
	LinkMbps float64
	// Delay is the one-way propagation delay to the speedtest server.
	Delay time.Duration
	// Duration is how long each direction runs.
	Duration time.Duration
	Seed     int64
}

// DefaultTable3Options mirrors the paper's dedicated 25 Mbps WiFi.
func DefaultTable3Options() Table3Options {
	return Table3Options{LinkMbps: 25, Delay: 10 * time.Millisecond, Duration: 2 * time.Second, Seed: 3}
}

var speedtestAddr = netip.MustParseAddrPort("151.101.2.219:8080")

func speedtestLink(o Table3Options) netsim.LinkParams {
	return netsim.LinkParams{
		Delay: o.Delay,
		Down:  netsim.Mbps(o.LinkMbps),
		Up:    netsim.Mbps(o.LinkMbps),
	}
}

// speedtestServer streams unlimited bytes down and swallows uploads.
func speedtestServer() netsim.TCPHandler {
	return netsim.SourceHandler(1 << 40)
}

// RunTable3 measures download and upload throughput three ways.
func RunTable3(o Table3Options) (*Table3Result, error) {
	res := &Table3Result{}

	// Baseline: a direct socket on the same link, no relay.
	{
		clk := clock.NewReal()
		net := netsim.New(clk, speedtestLink(o), o.Seed)
		net.HandleTCP(speedtestAddr, speedtestServer())
		c, err := net.Dial(netip.AddrPortFrom(testbed.PhoneWANAddr, 40000), speedtestAddr)
		if err != nil {
			net.Close()
			return nil, fmt.Errorf("baseline dial: %w", err)
		}
		res.BaselineDown = mbps(netsimDrain(c, o.Duration), o.Duration)
		c.Close()

		var delivered atomic.Int64
		net.HandleTCP(speedtestAddr, netsim.CountingSinkHandler(&delivered))
		c2, err := net.Dial(netip.AddrPortFrom(testbed.PhoneWANAddr, 40001), speedtestAddr)
		if err != nil {
			net.Close()
			return nil, fmt.Errorf("baseline upload dial: %w", err)
		}
		_ = netsimPush(c2, o.Duration)
		res.BaselineUp = mbps(delivered.Load(), o.Duration)
		c2.Close()
		net.Close()
	}

	// Through a relay: MopEye, then Haystack.
	relayRun := func(cfg engine.Config, seed int64) (down, up float64, err error) {
		mk := func(handler netsim.TCPHandler, seed int64) (*testbed.Bed, error) {
			bed, err := testbed.New(testbed.Options{
				Engine: &cfg,
				Link:   speedtestLink(o),
				Servers: []netsim.ServerSpec{{
					Domain: "speedtest.example", Addr: speedtestAddr,
					Link: speedtestLink(o), Handler: handler,
				}},
				Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			bed.InstallApp(uidApp, "org.zwanoo.android.speedtest")
			return bed, nil
		}

		bed, err := mk(speedtestServer(), seed)
		if err != nil {
			return 0, 0, err
		}
		conn, err := bed.Phone.Connect(uidApp, speedtestAddr, 10*time.Second)
		if err != nil {
			bed.Close()
			return 0, 0, fmt.Errorf("relay dial: %w", err)
		}
		down = mbps(drainDownload(conn, o.Duration), o.Duration)
		conn.Close()
		bed.Close()

		var delivered atomic.Int64
		bed, err = mk(netsim.CountingSinkHandler(&delivered), seed+1)
		if err != nil {
			return 0, 0, err
		}
		conn, err = bed.Phone.Connect(uidApp, speedtestAddr, 10*time.Second)
		if err != nil {
			bed.Close()
			return 0, 0, fmt.Errorf("relay upload dial: %w", err)
		}
		_ = pushUpload(conn, o.Duration)
		up = mbps(delivered.Load(), o.Duration)
		conn.Close()
		bed.Close()
		return down, up, nil
	}

	var err error
	res.MopEyeDown, res.MopEyeUp, err = relayRun(engine.Default(), o.Seed+10)
	if err != nil {
		return nil, err
	}
	res.HaystackDown, res.HaystackUp, err = relayRun(haystack.Config(), o.Seed+20)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the result in the layout of Table 3.
func (r *Table3Result) String() string {
	header := []string{"Throughput", "Baseline", "MopEye", "Δ", "Haystack", "Δ"}
	rows := [][]string{
		{"Download",
			fmt.Sprintf("%.2f", r.BaselineDown),
			fmt.Sprintf("%.2f", r.MopEyeDown),
			fmt.Sprintf("%.2f", r.DeltaMopEyeDown()),
			fmt.Sprintf("%.2f", r.HaystackDown),
			fmt.Sprintf("%.2f", r.DeltaHaystackDown())},
		{"Upload",
			fmt.Sprintf("%.2f", r.BaselineUp),
			fmt.Sprintf("%.2f", r.MopEyeUp),
			fmt.Sprintf("%.2f", r.DeltaMopEyeUp()),
			fmt.Sprintf("%.2f", r.HaystackUp),
			fmt.Sprintf("%.2f", r.DeltaHaystackUp())},
	}
	return renderTable(header, rows)
}
