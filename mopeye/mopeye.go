// Package mopeye is the public API of the MopEye reproduction: a
// VpnService-style opportunistic per-app network performance monitor
// (Wu et al., USENIX ATC 2017) running against a simulated phone and
// network.
//
// The central type is Phone: a simulated Android device with the
// MopEye engine attached to its TUN interface. Apps you connect
// through the phone are relayed to simulated servers by MopEye's
// user-space TCP stack, and every connection yields one opportunistic
// RTT measurement attributed to the owning app — with zero probe
// traffic, exactly as the paper's system works.
//
//	phone, _ := mopeye.New(mopeye.Options{
//		Servers: []mopeye.Server{{Domain: "api.example.com", RTTMillis: 40}},
//	})
//	defer phone.Close()
//	phone.InstallApp(10001, "com.example.app")
//	conn, _ := phone.Connect(10001, "api.example.com:443")
//	conn.Write([]byte("hello"))
//	conn.Close()
//	for _, m := range phone.Measurements() {
//		fmt.Printf("%s -> %s: %v\n", m.App, m.Dst, m.RTT)
//	}
//
// Because MopEye monitors continuously, the API is push-first:
// Phone.Subscribe streams measurements live as a context-cancellable
// iterator (stream.go), and Phone.Collect starts the crowdsourcing
// Collector, which reads its own subscription, batches and uploads for
// the engine's lifetime (collector.go). The snapshot accessors above
// remain as pull-style views over the phone's store, the one local copy
// of its records; measure.WriteJSONL exports them as JSON Lines.
//
// The Collector's upload side is a pluggable Transport (transport.go):
// HTTPTransport ships idempotency-keyed batches to a collector server
// (cmd/collectord) with retry and a bounded in-flight queue, and the
// server's dedup makes delivery exactly-once; TransportFunc hands batches
// to in-process consumers, such as NewStudyFrom for the §4.2 analysis.
// Several phones are one Collector per phone sharing one Transport — the
// paper's deployment shape; examples/fleet runs it.
package mopeye

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/phonestack"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/testbed"
	"repro/internal/tun"
)

// Server describes one simulated app server to install on the network.
type Server struct {
	// Domain is the server's DNS name (resolvable through the phone).
	Domain string
	// Addr optionally pins the server's IP:port; when empty an address
	// is derived from the domain, port 443.
	Addr string
	// RTTMillis is the round-trip time from the phone to this server.
	RTTMillis float64
	// Behaviour selects the canned server behaviour; default Echo.
	Behaviour ServerBehaviour
}

// ServerBehaviour selects what an installed server does.
type ServerBehaviour int

// Server behaviours.
const (
	// Echo writes back whatever it receives.
	Echo ServerBehaviour = iota
	// Chatty answers 4-byte big-endian length requests with that many
	// bytes — a generic API server.
	Chatty
)

// Options configures a simulated phone.
type Options struct {
	// Servers to install. At least one is usually wanted.
	Servers []Server
	// DefaultRTTMillis is the path RTT to addresses not covered by any
	// server entry (default 30 ms). The system resolver sits at half of
	// it: resolvers sit in the ISP.
	DefaultRTTMillis float64
	// Engine overrides the engine configuration; nil means the paper's
	// shipped configuration with every §3 optimisation on.
	Engine *engine.Config
	// Workers overrides the engine's worker count: 0 keeps whatever the
	// engine configuration says (the paper-faithful single MainWorker by
	// default); N > 1 runs the sharded multi-worker pipeline with each
	// flow pinned to one worker.
	Workers int
	// RealisticCosts enables the Android cost models (protect/register/
	// dispatch latency, proc parse cost, tunnel write cost). Off by
	// default for deterministic behaviour.
	RealisticCosts bool
	// Loopback runs the network in zero-delay loopback server mode:
	// connects, byte streams, and UDP services complete with no
	// simulated wire delay at all, so a load test measures the engine
	// rather than the path. RTT options are ignored when set.
	Loopback bool
	// Seed drives all randomness.
	Seed int64
}

// Measurement is one opportunistic RTT measurement.
type Measurement = measure.Record

// Phone is a simulated device with MopEye running.
//
// Beyond the pull-style snapshot accessors (Measurements,
// AppMedians…), a Phone exposes the streaming pipeline: Subscribe
// taps the live measurement stream as a range-over-func iterator, and
// Collect starts a crowdsourcing Collector that uploads every
// measurement for the rest of the engine's lifetime. See stream.go and
// collector.go. The phone's store is the only local copy of its
// records: a Collector ships them and keeps none.
type Phone struct {
	core
	bed *testbed.Bed
}

// New builds a phone, its network, and starts the engine.
func New(o Options) (*Phone, error) {
	if o.DefaultRTTMillis <= 0 {
		o.DefaultRTTMillis = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	cfg := engineConfig(o.Engine, o.Workers)
	dnsRTTMillis := o.DefaultRTTMillis / 2
	opts := testbed.Options{
		Engine:   &cfg,
		Link:     netsim.LinkParams{Delay: msToDelay(o.DefaultRTTMillis) / 2},
		DNSLink:  &netsim.LinkParams{Delay: msToDelay(dnsRTTMillis) / 2},
		Seed:     o.Seed,
		Sniff:    true,
		Loopback: o.Loopback,
	}
	if o.RealisticCosts {
		opts.SocketCosts = sockets.AndroidCosts()
		opts.ParseCost = procnet.AndroidParseCost()
		opts.TunWriteCost = tun.AndroidWriteCost()
	}
	for i, s := range o.Servers {
		spec, err := serverSpec(s, i)
		if err != nil {
			return nil, err
		}
		opts.Servers = append(opts.Servers, spec)
	}
	bed, err := testbed.New(opts)
	if err != nil {
		return nil, err
	}
	p := &Phone{bed: bed}
	// bed.Close is the teardown: its own engine stop and subscriber
	// shutdown are no-ops by the time the core runs it.
	p.init(bed.Eng, bed.Clk, bed.Close)
	return p, nil
}

func msToDelay(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

func serverSpec(s Server, idx int) (netsim.ServerSpec, error) {
	var addr netip.AddrPort
	if s.Addr != "" {
		a, err := netip.ParseAddrPort(s.Addr)
		if err != nil {
			return netsim.ServerSpec{}, fmt.Errorf("mopeye: server %q: %w", s.Domain, err)
		}
		addr = a
	} else {
		// Derive a stable address from the install order.
		addr = netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, 100, byte(idx + 1)}), 443)
	}
	var h netsim.TCPHandler
	switch s.Behaviour {
	case Chatty:
		h = netsim.ChattyHandler()
	default:
		h = netsim.EchoHandler()
	}
	return netsim.ServerSpec{
		Domain: s.Domain,
		Addr:   addr,
		Link: netsim.LinkParams{
			Delay: msToDelay(s.RTTMillis) / 2,
		},
		Handler: h,
	}, nil
}

// InstallApp registers an app package under a UID, the identity the
// packet-to-app mapping resolves (§2.2).
func (p *Phone) InstallApp(uid int, pkg string) { p.bed.InstallApp(uid, pkg) }

// Conn is an app-side TCP connection through the relay.
type Conn struct {
	c *phonestack.Conn
}

// Connect opens a TCP connection as the app with the given UID. The
// destination is "domain:port" (resolved through the phone's DNS, which
// itself produces a DNS measurement) or a literal "ip:port".
func (p *Phone) Connect(uid int, dst string) (*Conn, error) {
	ap, err := p.resolveDst(uid, dst)
	if err != nil {
		return nil, err
	}
	c, err := p.bed.Phone.Connect(uid, ap, 15*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c}, nil
}

func (p *Phone) resolveDst(uid int, dst string) (netip.AddrPort, error) {
	if ap, err := netip.ParseAddrPort(dst); err == nil {
		return ap, nil
	}
	host, port, err := splitHostPort(dst)
	if err != nil {
		return netip.AddrPort{}, err
	}
	res, err := p.bed.Phone.Resolve(uid, testbed.DNSAddr, host, 10*time.Second)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("mopeye: resolving %q: %w", host, err)
	}
	return netip.AddrPortFrom(res.Addr, port), nil
}

// splitHostPort splits "host:port" with net.SplitHostPort semantics,
// so bracketed IPv6 literals like "[::1]:443" parse as an address plus
// port rather than being cut at the wrong colon.
func splitHostPort(s string) (host string, port uint16, err error) {
	host, portStr, err := net.SplitHostPort(s)
	if err != nil {
		return "", 0, fmt.Errorf("mopeye: bad destination %q: %w", s, err)
	}
	if host == "" {
		return "", 0, fmt.Errorf("mopeye: missing host in %q", s)
	}
	p, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil || p == 0 {
		return "", 0, fmt.Errorf("mopeye: bad port in %q", s)
	}
	return host, uint16(p), nil
}

// Resolve performs a DNS lookup as the app with the given UID,
// producing a DNS measurement in the store.
func (p *Phone) Resolve(uid int, name string) (netip.Addr, error) {
	res, err := p.bed.Phone.Resolve(uid, testbed.DNSAddr, name, 10*time.Second)
	if err != nil {
		return netip.Addr{}, err
	}
	return res.Addr, nil
}

// Write sends application bytes.
func (c *Conn) Write(b []byte) (int, error) { return c.c.Write(b) }

// Read receives application bytes.
func (c *Conn) Read(b []byte) (int, error) { return c.c.Read(b) }

// ReadFull reads exactly len(b) bytes.
func (c *Conn) ReadFull(b []byte) error { return c.c.ReadFull(b) }

// Close closes the connection (FIN through the relay).
func (c *Conn) Close() error { return c.c.Close() }

// ConnectLatency is the connect() latency the app itself observed
// through the relay.
func (c *Conn) ConnectLatency() time.Duration { return c.c.ConnectElapsed }

// GroundTruthRTTs returns the wire-level (tcpdump-equivalent) handshake
// RTTs in milliseconds observed toward dst, for validating measurement
// accuracy.
func (p *Phone) GroundTruthRTTs(dst string) ([]float64, error) {
	ap, err := netip.ParseAddrPort(dst)
	if err != nil {
		return nil, fmt.Errorf("mopeye: GroundTruthRTTs wants ip:port, got %q: %w", dst, err)
	}
	return p.bed.Sniffer.RTTsTo(ap), nil
}
