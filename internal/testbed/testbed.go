// Package testbed assembles the full Figure 2 topology — simulated
// apps, phone kernel stack, TUN device, MopEye engine, socket layer,
// and the external network with its servers — so experiments, examples
// and benchmarks build on one fixture.
package testbed

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync/atomic"
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
	"repro/internal/upstream"
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
	Table   *procnet.Table
	PM      *procnet.PackageManager
	Phone   *phonestack.Phone
	Prov    *sockets.Provider
	Reader  *procnet.Reader
	Eng     *engine.Engine
	Store   *measure.Store
	Meter   *resource.Meter
	Sniffer *sniffer.Sniffer
	Zone    *netsim.Zone
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
	zone, err := netsim.Install(net, o.Servers, DNSAddr, dnsLink, 0)
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
	meter := resource.NewMeter(resource.DefaultCosts(), o.MeterBaseMB)

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
		Clk: clk, Net: net, Dev: dev, Table: table, PM: pm, Phone: phone,
		Prov: prov, Reader: reader, Eng: eng, Store: store, Meter: meter,
		Sniffer: snf, Zone: zone,
	}, nil
}

// InstallApp registers an app package under a UID.
func (b *Bed) InstallApp(uid int, name string) { b.PM.Install(uid, name) }

// SOCKSAddr is where InstallSOCKS5 listens inside the emulated network.
var SOCKSAddr = netip.AddrPortFrom(netip.MustParseAddr("100.64.0.80"), 1080)

// InstallSOCKS5 runs the in-process SOCKS5 proxy inside the bed's
// network at SOCKSAddr and returns its address. The proxy's own link is
// zero-delay (loopback-adjacent middlebox), so a flow relayed through
// it pays exactly the destination link's cost — the property the
// byte-identical direct-vs-SOCKS e2e pins. cfg's fault-injection knobs
// (auth, refusal, hang) pass through; the backend dial is wired into
// the emulated network unless the caller overrides it.
func (b *Bed) InstallSOCKS5(cfg upstream.ServerConfig) netip.AddrPort {
	if cfg.Dial == nil {
		var backendPort atomic.Uint32
		backendPort.Store(41000)
		cfg.Dial = func(dst netip.AddrPort) (io.ReadWriteCloser, error) {
			local := netip.AddrPortFrom(SOCKSAddr.Addr(), uint16(backendPort.Add(1)))
			return b.Net.Dial(local, dst)
		}
	}
	b.Net.SetLink(SOCKSAddr.Addr(), netsim.LinkParams{})
	b.Net.HandleTCP(SOCKSAddr, func(c *netsim.Conn) { _ = upstream.ServeConn(c, cfg) })
	return SOCKSAddr
}

// UseSOCKS5 points the relay's upstream exit at a SOCKS5 proxy inside
// the emulated network. Call before traffic flows. Username/password
// may be empty for an anonymous proxy; timeout zero selects the
// dialer's default.
func (b *Bed) UseSOCKS5(proxy netip.AddrPort, username, password string, timeout time.Duration) {
	b.Prov.SetDialer(&upstream.SOCKS5{
		Proxy:    proxy,
		Username: username,
		Password: password,
		Timeout:  timeout,
		Forward:  upstream.Netsim{Net: b.Net},
		Clk:      b.Clk,
	})
}

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
