package mopeye

import (
	"context"
	"fmt"
	"io"
	"iter"
	"net/netip"
	"os/user"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/procnet"
	"repro/internal/resource"
	"repro/internal/sockets"
	"repro/internal/tun"
	"repro/internal/tun/lintun"
	"repro/internal/upstream"
)

// RealOptions configures a phone on the real Linux data plane: the
// engine reads packets from a kernel TUN device instead of the
// emulated one, relays TCP flows out through kernel sockets (directly
// or via a SOCKS5 proxy), relays UDP through per-datagram kernel
// sockets, and attributes flows by parsing the live /proc/net tables.
//
// Requires a build with `-tags realtun` on linux and a process
// privileged enough to open /dev/net/tun (CAP_NET_ADMIN). Bringing the
// interface up, addressing it, and routing traffic into it is the
// operator's job — see the README quickstart.
type RealOptions struct {
	// TunName is the TUN device name to create or attach (e.g.
	// "mopeye0"); empty lets the kernel assign one.
	TunName string
	// Upstream selects where relayed TCP flows exit: "" or "direct"
	// for plain kernel sockets, "socks5://[user:pass@]host:port" to
	// relay through a SOCKS5 proxy.
	Upstream string
	// DialTimeout bounds each upstream connect (default 10s).
	DialTimeout time.Duration
	// UDPTimeout bounds each relayed datagram's response wait
	// (default 5s).
	UDPTimeout time.Duration
	// Engine overrides the engine configuration; nil means the paper's
	// shipped configuration.
	Engine *engine.Config
	// Workers and ReadBatch mirror Options: worker count and read-burst
	// size for the multi-worker pipeline.
	Workers   int
	ReadBatch int
	// ProcRoot is the proc mount to attribute flows from; empty means
	// "/proc".
	ProcRoot string
}

// RealPhone is MopEye attached to a real TUN device. The measurement
// pipeline is the same one the simulated Phone drives — same engine,
// same store, same export formats — only the substrate differs.
type RealPhone struct {
	dev   *lintun.TUN
	eng   *engine.Engine
	store *measure.Store
	pm    *procnet.PackageManager
	clk   clock.Clock

	closeOnce sync.Once

	// metricsOnce builds the lazy observability registry; see
	// metrics.go.
	metricsOnce sync.Once
	metricsReg  *metrics.Registry
}

// NewReal opens the TUN device and starts the engine against the real
// data plane. Fails with lintun.ErrUnsupported on builds without
// `-tags realtun`.
func NewReal(o RealOptions) (*RealPhone, error) {
	spec, err := upstream.ParseSpec(o.Upstream)
	if err != nil {
		return nil, err
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.UDPTimeout <= 0 {
		o.UDPTimeout = 5 * time.Second
	}
	dialer, err := spec.Dialer(o.DialTimeout)
	if err != nil {
		return nil, err
	}

	dev, err := lintun.Open(o.TunName)
	if err != nil {
		return nil, err
	}

	clk := clock.NewReal()
	reader := procnet.NewReaderFrom(procnet.ProcFS{Root: o.ProcRoot}, clk, procnet.ZeroParseCost(), 1)
	pm := procnet.NewPackageManager()
	pm.SetFallback(userName)

	// No emulated network behind the provider: every flow exits through
	// the upstream dialer (TCP) and the kernel UDP transport.
	prov := sockets.NewProvider(nil, clk, netip.IPv4Unspecified(), sockets.CostModel{}, 1)
	prov.SetDialer(dialer)
	prov.SetUDPTransport(upstream.KernelUDP(o.UDPTimeout))

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

	store := measure.NewStore()
	eng := engine.New(cfg, engine.Deps{
		Clock:    clk,
		Device:   dev,
		Sockets:  prov,
		ProcNet:  reader,
		Packages: pm,
		Store:    store,
		Meter:    resource.NewMeter(resource.DefaultCosts(), 12),
	})
	eng.Start()
	return &RealPhone{dev: dev, eng: eng, store: store, pm: pm, clk: clk}, nil
}

// userName maps a host UID to its account name, the closest Linux
// analogue of Android's per-app UIDs; unresolvable UIDs render as
// "uid:N" so records stay attributable.
func userName(uid int) (string, bool) {
	if u, err := user.LookupId(strconv.Itoa(uid)); err == nil && u.Username != "" {
		return u.Username, true
	}
	return fmt.Sprintf("uid:%d", uid), true
}

// Device returns the kernel interface name (e.g. "tun0"), for the
// operator's `ip` commands.
func (p *RealPhone) Device() string { return p.dev.Name() }

// MTU returns the interface MTU the engine honors.
func (p *RealPhone) MTU() int { return p.dev.MTU() }

// InstallApp labels a host UID, overriding the account-name fallback —
// handy for pinning test traffic to a recognizable name.
func (p *RealPhone) InstallApp(uid int, name string) { p.pm.Install(uid, name) }

// Measurements returns every opportunistic measurement collected so
// far.
func (p *RealPhone) Measurements() []Measurement { return p.store.Snapshot() }

// TCPMeasurements returns the per-app TCP connect RTTs.
func (p *RealPhone) TCPMeasurements() []Measurement { return p.store.Kind(measure.KindTCP) }

// DNSMeasurements returns the DNS transaction RTTs.
func (p *RealPhone) DNSMeasurements() []Measurement { return p.store.Kind(measure.KindDNS) }

// ExportCSV writes a snapshot of the measurements as CSV.
func (p *RealPhone) ExportCSV(w io.Writer) error {
	return measure.WriteCSV(w, p.store.Snapshot())
}

// ExportJSONL writes a snapshot of the measurements as JSON Lines.
func (p *RealPhone) ExportJSONL(w io.Writer) error {
	return measure.WriteJSONL(w, p.store.Snapshot())
}

// AppMedians returns each app's median RTT in milliseconds over apps
// with at least minN measurements.
func (p *RealPhone) AppMedians(minN int) map[string]float64 {
	return measure.AppMedians(p.TCPMeasurements(), minN)
}

// EngineStats exposes the engine's internal counters.
func (p *RealPhone) EngineStats() engine.Stats { return p.eng.Stats() }

// Subscribe streams measurements as they are recorded, with the same
// contract as Phone.Subscribe: registered before returning, bounded
// ring, drops counted in StreamDrops, stream ends on ctx cancellation
// or Close.
func (p *RealPhone) Subscribe(ctx context.Context, f Filter) iter.Seq[Measurement] {
	sub := p.store.Subscribe(0, f.predicate())
	if ctx != nil {
		context.AfterFunc(ctx, sub.Close)
	}
	return sub.Seq(ctx)
}

// StreamDrops reports the total measurements dropped across all
// subscribers because a ring was full. Zero in any healthy deployment.
func (p *RealPhone) StreamDrops() uint64 { return p.store.DroppedRecords() }

// TunStats exposes the device's packet counters.
func (p *RealPhone) TunStats() tun.Stats { return p.dev.Stats() }

// Close stops the engine, ends every live Subscribe stream (delivering
// the records already ringed), and closes the TUN device. Idempotent.
func (p *RealPhone) Close() {
	p.closeOnce.Do(func() {
		p.eng.Stop()
		p.store.CloseSubscribers()
		p.dev.Close()
	})
}
