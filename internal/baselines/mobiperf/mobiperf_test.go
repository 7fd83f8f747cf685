package mobiperf

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/baselines/sniffer"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sockets"
	"repro/internal/stats"
)

var target = netip.MustParseAddrPort("216.58.221.132:80")

func setup(t *testing.T) (*Pinger, *sniffer.Sniffer) {
	t.Helper()
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: 5 * time.Millisecond}, 1)
	t.Cleanup(net.Close)
	net.HandleTCP(target, netsim.HTTPPingHandler())
	snf := sniffer.New(net)
	prov := sockets.NewProvider(net, clk, netip.MustParseAddr("100.64.0.5"), sockets.CostModel{}, 2)
	return New(prov, clk, V340(), 3), snf
}

func TestPingOverestimates(t *testing.T) {
	p, snf := setup(t)
	samples, err := p.PingN(target, 10)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(samples)
	truth := stats.Mean(snf.RTTsTo(target))
	delta := mean - truth
	// §4.1.1: MobiPerf's deviations run 12–79 ms above tcpdump.
	if delta < 8 {
		t.Errorf("MobiPerf delta %.1f ms implausibly small (paper: 12–79)", delta)
	}
	if delta > 90 {
		t.Errorf("MobiPerf delta %.1f ms beyond the paper's band", delta)
	}
}

func TestQuantization(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: 2 * time.Millisecond}, 1)
	defer net.Close()
	net.HandleTCP(target, netsim.HTTPPingHandler())
	prov := sockets.NewProvider(net, clk, netip.MustParseAddr("100.64.0.5"), sockets.CostModel{}, 2)
	// Zero costs, only quantisation: results must be whole milliseconds.
	m := Model{Quantum: time.Millisecond}
	p := New(prov, clk, m, 3)
	rtt, err := p.Ping(target)
	if err != nil {
		t.Fatal(err)
	}
	if rtt%time.Millisecond != 0 {
		t.Errorf("RTT %v not quantised to ms", rtt)
	}
}

func TestPingFailurePropagates(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond}, 1)
	defer net.Close()
	prov := sockets.NewProvider(net, clk, netip.MustParseAddr("100.64.0.5"), sockets.CostModel{}, 2)
	p := New(prov, clk, V340(), 3)
	if _, err := p.Ping(target); err == nil {
		t.Error("ping to refused port succeeded")
	}
}
