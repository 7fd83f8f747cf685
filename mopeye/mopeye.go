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
// Because MopEye monitors continuously, the API is push-first: Phone.Subscribe
// streams measurements live as a context-cancellable iterator, and Phone.Attach
// drives a Sink — CSVSink, JSONLSink, or the crowdsourcing Collector, whose
// uploads feed the §4.2 analysis pipeline directly — for the engine's lifetime
// (stream.go, sink.go). The snapshot accessors above remain as pull-style views
// over the same pipeline.
//
// The Collector's upload side is a pluggable Transport (transport.go):
// HTTPTransport ships idempotency-keyed batches to a collector server
// (cmd/collectord) with retry and a bounded in-flight queue, and the
// server's dedup makes delivery exactly-once; FuncTransport keeps
// in-process consumers working. Fleet (fleet.go) runs N heterogeneous
// phones fanning their uploads into one Transport — the paper's
// deployment shape as an API.
//
// Beyond the live engine, the package exposes the paper's evaluation
// (RunTable1 … RunTable4, RunFig5) and the crowdsourcing study
// (NewStudy, and NewStudyFrom for collected records), which regenerate
// every table and figure of the paper.
package mopeye

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/metrics"
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
	// JitterMillis adds uniform per-packet jitter.
	JitterMillis float64
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
	// HTTPPing answers HTTP requests with 204 No Content.
	HTTPPing
)

// Options configures a simulated phone.
type Options struct {
	// Servers to install. At least one is usually wanted.
	Servers []Server
	// DefaultRTTMillis is the path RTT to addresses not covered by any
	// server entry (default 30 ms).
	DefaultRTTMillis float64
	// DNSRTTMillis is the path RTT to the system resolver (default:
	// half the default RTT — resolvers sit in the ISP).
	DNSRTTMillis float64
	// Engine overrides the engine configuration; nil means the paper's
	// shipped configuration with every §3 optimisation on.
	Engine *engine.Config
	// Workers overrides the engine's worker count: 0 keeps whatever the
	// engine configuration says (the paper-faithful single MainWorker by
	// default); N > 1 runs the sharded multi-worker pipeline with each
	// flow pinned to one worker.
	Workers int
	// ReadBatch overrides the multi-worker burst size: how many tunnel
	// packets the reader retrieves per batched read and the writer
	// flushes per batched write. 0 keeps the engine default (64); 1
	// disables batching (the ablation value). Ignored at Workers=1,
	// which always runs the paper's per-packet read loop.
	ReadBatch int
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

	// clk injects the phone's time source (network, TUN, stack, engine);
	// nil means the wall clock. Unexported: in-package tests and the
	// scenario runner use it to run phones on simulated time.
	clk clock.Clock
}

// Measurement is one opportunistic RTT measurement.
type Measurement = measure.Record

// Phone is a simulated device with MopEye running.
//
// Beyond the pull-style snapshot accessors (Measurements, ExportCSV,
// AppMedians…), a Phone exposes the streaming pipeline: Subscribe
// taps the live measurement stream as a range-over-func iterator, and
// Attach registers a Sink — CSVSink, JSONLSink, or the crowdsourcing
// Collector — that consumes every measurement for the rest of the
// engine's lifetime. See stream.go and sink.go.
type Phone struct {
	bed *testbed.Bed

	// done is closed once Close has fully torn the phone down; Run
	// waits on it.
	done chan struct{}
	// closeOnce makes Close idempotent and safe against concurrent
	// Subscribe/Attach/Close callers.
	closeOnce sync.Once

	// mu guards the attach bookkeeping below.
	mu     sync.Mutex
	closed bool
	sinks  []*attachedSink
	sinkWG sync.WaitGroup

	// metricsOnce builds the lazy observability registry; see
	// metrics.go.
	metricsOnce sync.Once
	metricsReg  *metrics.Registry
}

// New builds a phone, its network, and starts the engine.
func New(o Options) (*Phone, error) {
	if o.DefaultRTTMillis <= 0 {
		o.DefaultRTTMillis = 30
	}
	if o.DNSRTTMillis <= 0 {
		o.DNSRTTMillis = o.DefaultRTTMillis / 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	cfg := engine.Default()
	if o.Engine != nil {
		cfg = *o.Engine
	}
	if o.Workers > 0 {
		cfg.Workers = o.Workers
	}
	if o.ReadBatch > 0 {
		cfg.ReadBatch = o.ReadBatch
	}
	opts := testbed.Options{
		Engine:     cfg,
		EngineSet:  true,
		Link:       netsim.LinkParams{Delay: msToDelay(o.DefaultRTTMillis) / 2},
		DNSLink:    netsim.LinkParams{Delay: msToDelay(o.DNSRTTMillis) / 2},
		DNSLinkSet: true,
		Seed:       o.Seed,
		Sniff:      true,
		Loopback:   o.Loopback,
		Clock:      o.clk,
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
	return &Phone{bed: bed, done: make(chan struct{})}, nil
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
	case HTTPPing:
		h = netsim.HTTPPingHandler()
	default:
		h = netsim.EchoHandler()
	}
	return netsim.ServerSpec{
		Domain: s.Domain,
		Addr:   addr,
		Link: netsim.LinkParams{
			Delay:  msToDelay(s.RTTMillis) / 2,
			Jitter: msToDelay(s.JitterMillis),
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

// Measurements returns every opportunistic measurement collected so
// far — the pull-style snapshot of the same stream Subscribe delivers
// push-style, in the same order. Copies the whole store on every
// call; continuous consumers should prefer Subscribe or Attach.
func (p *Phone) Measurements() []Measurement { return p.bed.Store.Snapshot() }

// ExportCSV writes a snapshot of the phone's measurements as CSV —
// the batch form of what MopEye uploads to the crowdsourcing
// collector. For continuous export, Attach a CSVSink (byte-identical
// output) or a Collector instead.
func (p *Phone) ExportCSV(w io.Writer) error {
	return measure.WriteCSV(w, p.bed.Store.Snapshot())
}

// ExportJSONL writes a snapshot of the phone's measurements as JSON
// Lines, the streaming-friendly export (`mopeye -jsonl`). For
// continuous export, Attach a JSONLSink instead.
func (p *Phone) ExportJSONL(w io.Writer) error {
	return measure.WriteJSONL(w, p.bed.Store.Snapshot())
}

// TCPMeasurements returns a snapshot of the per-app TCP RTTs — the
// pull form of Subscribe(ctx, Filter{Kind: TCPOnly}).
func (p *Phone) TCPMeasurements() []Measurement {
	return p.bed.Store.Kind(measure.KindTCP)
}

// DNSMeasurements returns a snapshot of the DNS RTTs — the pull form
// of Subscribe(ctx, Filter{Kind: DNSOnly}).
func (p *Phone) DNSMeasurements() []Measurement {
	return p.bed.Store.Kind(measure.KindDNS)
}

// AppMedians returns each app's median RTT in milliseconds over apps
// with at least minN measurements. The Collector sink maintains the
// same aggregate continuously on its upload schedule.
func (p *Phone) AppMedians(minN int) map[string]float64 {
	return measure.AppMedians(p.TCPMeasurements(), minN)
}

// EngineStats exposes the engine's internal counters.
func (p *Phone) EngineStats() engine.Stats { return p.bed.Eng.Stats() }

// AppTraffic is one app's relayed-volume report — the beyond-RTT
// metric extension the paper's conclusion proposes.
type AppTraffic = engine.AppTraffic

// AppTraffic returns per-app traffic volumes, largest first. Like the
// RTT measurement, this is opportunistic: it costs nothing beyond the
// relaying MopEye already does.
func (p *Phone) AppTraffic() []AppTraffic { return p.bed.Eng.AppTraffic() }

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

// Close stops the engine, ends every live Subscribe stream and
// attached Sink (delivering the records already in flight, then
// flushing and closing the sinks), and tears the simulation down.
// Close is idempotent and safe to call concurrently with Subscribe,
// Attach, and other Close calls; every call returns only after the
// teardown has completed.
func (p *Phone) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		sinks := p.sinks
		p.mu.Unlock()

		// Stop the engine first: after bed.Close no worker can record,
		// so ending the subscriptions cannot truncate the stream —
		// subscribers drain what is already ringed, then see the end.
		p.bed.Close()
		p.sinkWG.Wait()
		for _, as := range sinks {
			as.finish()
		}
		close(p.done)
	})
	<-p.done
}
