// Package testbed assembles the full Figure 2 topology — simulated
// apps, phone kernel stack, TUN device, MopEye engine, socket layer,
// and the external network with its servers — so experiments, examples
// and benchmarks build on one fixture.
package testbed

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/baselines/sniffer"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/phonestack"
	"repro/internal/procnet"
	"repro/internal/resource"
	"repro/internal/sockets"
	"repro/internal/tun"
)

// Default addresses of the fixture.
var (
	PhoneVPNAddr = netip.MustParseAddr("10.0.0.2")
	PhoneWANAddr = netip.MustParseAddr("100.64.0.5")
	DNSAddr      = netip.MustParseAddrPort("8.8.8.8:53")
)

// Options configures a Bed.
type Options struct {
	// Engine is the engine configuration; nil means engine.Default().
	Engine *engine.Config
	// Link is the default path (phone to any unconfigured address).
	Link netsim.LinkParams
	// DNSLink is the path to the resolver; resolvers sit in the ISP so
	// they are usually closer (§4.2.3). nil means Link.
	DNSLink *netsim.LinkParams
	// SocketCosts models the Android socket-layer costs; zero costs if
	// unset (deterministic tests want that).
	SocketCosts sockets.CostModel
	// ParseCost models proc file parsing cost.
	ParseCost procnet.CostModel
	// TunWriteCost models the tunnel write syscall; nil means free.
	TunWriteCost func(*rand.Rand) time.Duration
	// Servers to install; their domains populate the DNS zone.
	Servers []netsim.ServerSpec
	// MeterBaseMB is the engine's baseline memory footprint.
	MeterBaseMB float64
	// Loopback switches the network into zero-delay loopback server
	// mode (netsim.SetLoopback): benchmarks measure the engine, not the
	// simulated wire. Link parameters are ignored.
	Loopback bool
	// Sniff attaches a tcpdump-style sniffer.
	Sniff bool
	// Seed drives all randomness.
	Seed int64
	// Clock is the time source for every component of the bed — network,
	// TUN, phone stack, engine. nil means the wall clock; tests inject a
	// clock.Virtual to run the whole fixture on simulated time.
	Clock clock.Clock
}

// Bed is one assembled phone + network + engine.
type Bed struct {
	Clk     clock.Clock
	Net     *netsim.Network
	Dev     *tun.Device
	PM      *procnet.PackageManager
	Phone   *phonestack.Phone
	Prov    *sockets.Provider
	Eng     *engine.Engine
	Store   *measure.Store
	Meter   *resource.Meter
	Sniffer *sniffer.Sniffer
}

// New builds and starts a bed.
func New(o Options) (*Bed, error) {
	cfg := engine.Default()
	if o.Engine != nil {
		cfg = *o.Engine
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MeterBaseMB == 0 {
		o.MeterBaseMB = 12
	}
	var clk clock.Clock = clock.NewReal()
	if o.Clock != nil {
		clk = o.Clock
	}
	net := netsim.New(clk, o.Link, o.Seed)
	if o.Loopback {
		net.SetLoopback(true)
	}
	dnsLink := o.Link
	if o.DNSLink != nil {
		dnsLink = *o.DNSLink
	}
	_, err := netsim.Install(net, o.Servers, DNSAddr, dnsLink, 0)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	dev := tun.New(clk, 8192)
	if o.TunWriteCost != nil {
		dev.SetWriteCost(o.TunWriteCost, o.Seed+10)
	}
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	phone := phonestack.New(clk, dev, PhoneVPNAddr, table, o.Seed+20)
	prov := sockets.NewProvider(net, clk, PhoneWANAddr, o.SocketCosts, o.Seed+30)
	reader := procnet.NewReader(table, clk, o.ParseCost, o.Seed+40)
	store := measure.NewStore()
	meter := resource.NewMeter(o.MeterBaseMB)

	var snf *sniffer.Sniffer
	if o.Sniff {
		snf = sniffer.New(net)
	}

	eng := engine.New(cfg, engine.Deps{
		Clock:    clk,
		Device:   dev,
		Sockets:  prov,
		ProcNet:  reader,
		Packages: pm,
		Store:    store,
		Meter:    meter,
	})
	eng.Start()

	return &Bed{
		Clk: clk, Net: net, Dev: dev, PM: pm, Phone: phone,
		Prov: prov, Eng: eng, Store: store, Meter: meter, Sniffer: snf,
	}, nil
}

// InstallApp registers an app package under a UID.
func (b *Bed) InstallApp(uid int, name string) { b.PM.Install(uid, name) }

// Close tears the bed down in dependency order. The engine stops
// first, so by the time the store's subscribers are shut down no
// worker can record: streams end cleanly after delivering every
// measurement, never mid-stream.
func (b *Bed) Close() {
	b.Eng.Stop()
	b.Store.CloseSubscribers()
	b.Phone.Close()
	b.Dev.Close()
	b.Net.Close()
}

// EchoServer is a convenience ServerSpec.
func EchoServer(domain, addr string, rtt time.Duration) netsim.ServerSpec {
	return netsim.ServerSpec{
		Domain:  domain,
		Addr:    netip.MustParseAddrPort(addr),
		Link:    netsim.LinkParams{Delay: rtt / 2},
		Handler: netsim.EchoHandler(),
	}
}

// ChattyServer serves length-prefixed request/response exchanges.
func ChattyServer(domain, addr string, rtt time.Duration) netsim.ServerSpec {
	return netsim.ServerSpec{
		Domain:  domain,
		Addr:    netip.MustParseAddrPort(addr),
		Link:    netsim.LinkParams{Delay: rtt / 2},
		Handler: netsim.ChattyHandler(),
	}
}
