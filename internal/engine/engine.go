package engine

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/flowtable"
	"repro/internal/measure"
	"repro/internal/procnet"
	"repro/internal/relay"
	"repro/internal/resource"
	"repro/internal/sockets"
	"repro/internal/stats"
	"repro/internal/tun"
)

// Engine is one running MopEye instance (the MopEyeService of Figure 4).
//
// The packet-processing core is Config.Workers copies of the paper's
// MainWorker (worker.go), each owning one selector and one packet ring
// and each flow pinned to the worker that owns its flow-table shard;
// Workers=1 is the paper's single thread. Per-flow state lives in the
// sharded flowtable; hot counters are atomics (stats.go) so workers
// never contend on a global engine lock.
type Engine struct {
	cfg    Config
	clk    clock.Clock
	dev    tun.Interface
	prov   *sockets.Provider
	store  *measure.Store
	meter  *resource.Meter
	mapper *mapper

	writeQ *packetQueue // nil for DirectWrite
	rngMu  sync.Mutex
	rng    *rand.Rand

	traffic *trafficBook

	// flows is the sharded flow table. The shard index of a flow also
	// pins it to a worker.
	flows *flowtable.Table[*relay.TCPClient]
	// workers holds the engine's only selectors and packet rings, one
	// of each per worker; built in New so sockets can register and a
	// metrics scrape can read them before Start.
	workers []*worker

	// udp is the pooled UDP relay: NAT-style session table plus a
	// bounded worker pool (udprelay.go).
	udp *udpRelay

	ctr counters // hot counters, all atomic (stats.go)
	// countEstablished is the hook CompleteHandshake runs before the
	// SYN-ACK leaves; built once in New, so no connection allocates it.
	countEstablished func()

	histMu    sync.Mutex
	writeHist stats.DelayHistogram

	mu      sync.Mutex // lifecycle state only
	running bool
	wg      sync.WaitGroup
	connect sync.WaitGroup // socket-connect threads Stop waits for
}

// Deps bundles the engine's substrate handles.
type Deps struct {
	Clock clock.Clock
	// Device is any TUN backend: the emulated *tun.Device (default test
	// substrate) or a real Linux device via lintun (build tag realtun).
	Device   tun.Interface
	Sockets  *sockets.Provider
	ProcNet  *procnet.Reader
	Packages *procnet.PackageManager
	Store    *measure.Store
	Meter    *resource.Meter
}

// New assembles an engine. Store and Meter may be nil, in which case
// fresh ones are created and exposed via accessors.
func New(cfg Config, d Deps) *Engine {
	if cfg.DNSTimeout <= 0 {
		cfg.DNSTimeout = 5 * time.Second
	}
	if cfg.UDPTimeout <= 0 {
		cfg.UDPTimeout = 2 * time.Second
	}
	// The Haystack-style polled main loop is inherently single-threaded.
	if cfg.Workers <= 0 || cfg.MainLoopPoll > 0 {
		cfg.Workers = 1
	}
	if d.Store == nil {
		d.Store = measure.NewStore()
	}
	if d.Meter == nil {
		d.Meter = resource.NewMeter(resource.DefaultCosts(), 12)
	}
	e := &Engine{
		cfg:     cfg,
		clk:     d.Clock,
		dev:     d.Device,
		prov:    d.Sockets,
		store:   d.Store,
		meter:   d.Meter,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		traffic: newTrafficBook(),
		flows:   flowtable.New[*relay.TCPClient](0),
	}
	e.countEstablished = func() { e.ctr.established.Add(1) }
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		sel := e.prov.NewSelector()
		e.workers[i] = &worker{id: i, sel: sel, q: newRingQ(ringSize, sel.Wakeup)}
	}
	e.udp = newUDPRelay(e)
	e.mapper = newMapper(d.ProcNet, d.Packages, cfg.Mapping, d.Clock)
	if cfg.WriteScheme != DirectWrite {
		e.writeQ = newPacketQueue(d.Clock, cfg.WriteScheme == QueueWriteNewPut, cfg.Seed+1)
	}
	return e
}

// selectorFor returns the selector a flow on the given shard registers
// with: the owning worker's. Pinning the registration at connect time
// means the readiness event is enqueued directly on the consuming
// worker's selector and can never be claimed by another thread.
func (e *Engine) selectorFor(shard int) *sockets.Selector {
	return e.workers[shard%len(e.workers)].sel
}

// Store returns the measurement store.
func (e *Engine) Store() *measure.Store { return e.store }

// Meter returns the resource meter.
func (e *Engine) Meter() *resource.Meter { return e.meter }

// timeDuration converts clock-nano deltas.
func timeDuration(nanos int64) time.Duration { return time.Duration(nanos) }
