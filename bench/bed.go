package main

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/baselines/sniffer"
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
	"repro/internal/upstream"
	"repro/mopeye"
)

// phone is what the phone workloads need from a device under test. The
// timed pass gets it from the public API (mopeye.New); the traced pass
// from tracedBed, the same topology with span decorators at the seams.
type phone interface {
	InstallApp(uid int, pkg string)
	Connect(uid int, dst string) (flow, error)
	Resolve(uid int, name string) (netip.Addr, error)
	EngineStats() engine.Stats
	Measurements() []measure.Record
	GroundTruthRTTs(dst string) ([]float64, error)
	Close()
}

// flow is an app-side connection.
type flow interface {
	Write(b []byte) (int, error)
	ReadFull(b []byte) error
	Close() error
	ConnectLatency() time.Duration
}

// phoneSpec is the fixture both constructions build.
type phoneSpec struct {
	servers   []mopeye.Server
	workers   int
	loopback  bool
	rttMillis float64 // default path RTT when not loopback
	seed      int64
}

func newPhone(s phoneSpec, tr *tracer) (phone, error) {
	if tr != nil {
		return newTracedBed(s, tr)
	}
	p, err := mopeye.New(mopeye.Options{
		Servers:          s.servers,
		Workers:          s.workers,
		Loopback:         s.loopback,
		DefaultRTTMillis: s.rttMillis,
		Seed:             s.seed,
	})
	if err != nil {
		return nil, err
	}
	return apiPhone{p}, nil
}

// apiPhone adapts *mopeye.Phone: only Connect's concrete return type
// differs from the interface.
type apiPhone struct{ *mopeye.Phone }

func (a apiPhone) Connect(uid int, dst string) (flow, error) {
	c, err := a.Phone.Connect(uid, dst)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// tracedBed is testbed.New copied so the bench can hand the engine a
// span-recording tun.Interface and install a span-recording
// upstream.Dialer — the two seams reachable from outside the engine.
// Everything else matches what mopeye.New assembles (same seeds, same
// link derivation, sniffer on), so the two passes run the same system.
type tracedBed struct {
	net     *netsim.Network
	dev     *tun.Device
	stack   *phonestack.Phone
	pm      *procnet.PackageManager
	reader  *procnet.Reader
	eng     *engine.Engine
	store   *measure.Store
	sniffer *sniffer.Sniffer
	reg     *metrics.Registry
	closing sync.Once
}

func newTracedBed(s phoneSpec, tr *tracer) (*tracedBed, error) {
	rtt := s.rttMillis
	if rtt <= 0 {
		rtt = 30 // mopeye.Options.DefaultRTTMillis default
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: ms(rtt) / 2}, s.seed)
	if s.loopback {
		net.SetLoopback(true)
	}
	specs := make([]netsim.ServerSpec, len(s.servers))
	for i, sv := range s.servers {
		addr, err := netip.ParseAddrPort(sv.Addr)
		if err != nil {
			return nil, fmt.Errorf("server %q: %w", sv.Domain, err)
		}
		specs[i] = netsim.ServerSpec{
			Domain:  sv.Domain,
			Addr:    addr,
			Link:    netsim.LinkParams{Delay: ms(sv.RTTMillis) / 2},
			Handler: netsim.EchoHandler(),
		}
	}
	// The resolver sits half the default RTT away, as in mopeye.New.
	if _, err := netsim.Install(net, specs, testbed.DNSAddr, netsim.LinkParams{Delay: ms(rtt/2) / 2}, 0); err != nil {
		return nil, err
	}

	dev := tun.New(clk, 8192)
	table := procnet.NewTable()
	b := &tracedBed{
		net:     net,
		dev:     dev,
		pm:      procnet.NewPackageManager(),
		stack:   phonestack.New(clk, dev, testbed.PhoneVPNAddr, table, s.seed+20),
		reader:  procnet.NewReader(table, clk, procnet.CostModel{}, s.seed+40),
		store:   measure.NewStore(),
		sniffer: sniffer.New(net),
		reg:     metrics.NewRegistry(),
	}
	prov := sockets.NewProvider(net, clk, testbed.PhoneWANAddr, sockets.CostModel{}, s.seed+30)
	prov.SetDialer(&tracedDialer{next: upstream.Netsim{Net: net}, tr: tr})

	cfg := engine.Default()
	if s.workers > 0 {
		cfg.Workers = s.workers
	}
	b.eng = engine.New(cfg, engine.Deps{
		Clock:    clk,
		Device:   &tracedTun{Device: dev, tr: tr},
		Sockets:  prov,
		ProcNet:  b.reader,
		Packages: b.pm,
		Store:    b.store,
	})
	b.eng.RegisterMetrics(b.reg)
	b.eng.Start()
	return b, nil
}

func (b *tracedBed) InstallApp(uid int, pkg string) { b.pm.Install(uid, pkg) }

func (b *tracedBed) Connect(uid int, dst string) (flow, error) {
	ap, err := netip.ParseAddrPort(dst)
	if err != nil {
		return nil, err
	}
	c, err := b.stack.Connect(uid, ap, 15*time.Second)
	if err != nil {
		return nil, err
	}
	return stackFlow{c}, nil
}

func (b *tracedBed) Resolve(uid int, name string) (netip.Addr, error) {
	res, err := b.stack.Resolve(uid, testbed.DNSAddr, name, 10*time.Second)
	if err != nil {
		return netip.Addr{}, err
	}
	return res.Addr, nil
}

func (b *tracedBed) EngineStats() engine.Stats      { return b.eng.Stats() }
func (b *tracedBed) Measurements() []measure.Record { return b.store.Snapshot() }

func (b *tracedBed) GroundTruthRTTs(dst string) ([]float64, error) {
	ap, err := netip.ParseAddrPort(dst)
	if err != nil {
		return nil, err
	}
	return b.sniffer.RTTsTo(ap), nil
}

// Close tears down in testbed.Bed.Close's order.
func (b *tracedBed) Close() {
	b.closing.Do(func() {
		b.eng.Stop()
		b.store.CloseSubscribers()
		b.stack.Close()
		b.dev.Close()
		b.net.Close()
	})
}

// selects sums Select returns over the engine's selectors, read the
// way an operator would: from the exported metrics.
func (b *tracedBed) selects() float64 {
	var n float64
	for _, f := range b.reg.Gather() {
		if f.Name == "mopeye_engine_selector_selects_total" {
			for _, s := range f.Samples {
				n += s.Value
			}
		}
	}
	return n
}

type stackFlow struct{ *phonestack.Conn }

func (f stackFlow) ConnectLatency() time.Duration { return f.Conn.ConnectElapsed }
