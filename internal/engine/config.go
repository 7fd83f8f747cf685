// Package engine implements MopEye itself: the VpnService-based
// opportunistic measurement engine of §2–§3, with every design
// alternative the paper evaluates available as configuration so the
// optimisations can be measured as ablations (Tables 1–4, Figure 5).
//
// Architecture (Figure 4 of the paper): a TunReader thread retrieves
// raw IP packets from the TUN device into a read queue; a MainWorker
// thread multiplexes the read queue and all socket events on one
// selector (Config.Workers of them, each with its own queue and
// selector; the paper runs one); temporary socket-connect threads
// perform the blocking external connect() that yields the RTT
// measurement; a TunWriter thread drains a write queue into the tunnel.
package engine

import (
	"time"

	"repro/internal/tcpsm"
)

// ReadMode selects how TunReader retrieves packets (§3.1).
type ReadMode int

// Read modes.
const (
	// ReadBlocking is MopEye's zero-delay retrieval: the TUN descriptor
	// is switched to blocking mode and read from a dedicated thread.
	ReadBlocking ReadMode = iota
	// ReadPoll is the ToyVpn/PrivacyGuard paradigm: non-blocking reads
	// with a fixed sleep between empty polls.
	ReadPoll
	// ReadPollAdaptive is ToyVpn's "intelligent sleeping": the sleep
	// pauses while consecutive reads succeed (Haystack adopts a similar
	// idea).
	ReadPollAdaptive
)

// WriteScheme selects how packets reach the tunnel (§3.5.1, Table 1).
type WriteScheme int

// Write schemes.
const (
	// DirectWrite writes from whichever thread produced the packet.
	DirectWrite WriteScheme = iota
	// QueueWriteOldPut enqueues to a dedicated TunWriter thread using a
	// plain wait/notify queue.
	QueueWriteOldPut
	// QueueWriteNewPut enqueues to TunWriter with the sleep-counter
	// algorithm that avoids most wait/notify handoffs (MopEye's choice).
	QueueWriteNewPut
)

// MappingMode selects the packet-to-app mapping strategy (§3.3).
type MappingMode int

// Mapping modes.
const (
	// MapLazy is MopEye's design: mapping is deferred to the
	// socket-connect thread, and concurrent threads elect one parser.
	MapLazy MappingMode = iota
	// MapEager parses the proc tables on the main thread for every SYN
	// (the pre-optimisation behaviour behind Figure 5(a)).
	MapEager
	// MapCache caches by remote endpoint, Haystack-style — fast but
	// wrong when two apps share a server endpoint (§3.3).
	MapCache
	// MapOff disables attribution (packets relay, records say unknown).
	MapOff
)

// ProtectMode selects how sockets are exempted from the VPN (§3.5.2).
type ProtectMode int

// Protect modes.
const (
	// ProtectDisallowed uses the one-time addDisallowedApplication
	// call (Android 5.0+, MopEye's choice).
	ProtectDisallowed ProtectMode = iota
	// ProtectPerSocket calls protect(socket) per connection, in the
	// socket-connect thread so only the SYN is penalised.
	ProtectPerSocket
	// ProtectPerSocketMainThread calls protect(socket) on the main
	// thread before spawning the connect (the naive placement).
	ProtectPerSocketMainThread
)

// Config selects the engine variant.
type Config struct {
	ReadMode     ReadMode
	PollInterval time.Duration // sleep between empty polls for ReadPoll*

	// RingSize is the per-worker SPSC ring capacity (the read queue of
	// §3.2), rounded up to a power of two; zero selects 1024. When a
	// worker's ring is full the reader blocks, pushing backpressure to
	// the TUN queue, which drops on overflow like a real device.
	RingSize int

	// Workers selects how many packet-processing workers run. Every
	// worker owns its own selector and its own SPSC packet ring, each
	// flow pinned (and its socket registered) to the worker owning its
	// flow-table shard, so neither packets nor readiness events ever
	// cross a shared stage. The paper-faithful default is 1: the single
	// MainWorker thread of Figure 4 that every ablation (Tables 1–4)
	// measures. The reader and writer are the same per-packet loops at
	// every worker count; N > 1 only routes each packet to its flow's
	// worker. MainLoopPoll > 0 (the Haystack-style polled loop) always
	// runs single-worker.
	Workers int

	// FlowShards is the flow-table shard count (rounded up to a power
	// of two); zero selects flowtable.DefaultShards. More shards than
	// workers keeps the shard → worker assignment even.
	FlowShards int

	// MainLoopPoll, when positive, replaces the event-driven MainWorker
	// (Select + Wakeup, §3.2) with a fixed-interval poll-process cycle:
	// sleep, then drain whatever sockets and tunnel packets have
	// accumulated. This is the single-threaded loop structure of
	// poll-based relays like Haystack; it batches both directions and
	// is the mechanism behind their throughput collapse (Table 3).
	MainLoopPoll time.Duration

	WriteScheme WriteScheme
	// SpinThreshold is newPut's sleep-counter threshold (§3.5.1).
	SpinThreshold int

	Mapping MappingMode
	// MapWait is the lazy mapper's sleep while another thread parses;
	// the paper chose 50 ms.
	MapWait time.Duration

	Protect ProtectMode

	// BlockingConnectMeasure runs connect() in a temporary blocking
	// thread and timestamps around it (§2.4). When false, the engine
	// uses a non-blocking connect and timestamps at the selector event,
	// exposing the dispatch-noise inaccuracy the paper fixed.
	BlockingConnectMeasure bool

	// DeferRegister performs selector register() in the socket-connect
	// thread after the internal handshake instead of on the main thread
	// (§3.4 "minimizing the use of expensive calls").
	DeferRegister bool

	// PerPacketCost charges extra main-thread work per relayed data
	// packet (zero for MopEye; the Haystack baseline uses it to model
	// traffic content inspection).
	PerPacketCost time.Duration
	// InspectPackets feeds the resource meter's inspection counter.
	InspectPackets bool

	MSS    int
	Window int

	// DNSTimeout bounds each relayed DNS transaction (§2.4).
	DNSTimeout time.Duration
	// UDPTimeout bounds generic (non-DNS) UDP associations.
	UDPTimeout time.Duration

	// UDPPoolSize bounds the pooled UDP relay workers performing the
	// blocking per-datagram send/receive (the §2.4 temporary-thread
	// work, now bounded — a datagram flood reuses these workers instead
	// of spawning one goroutine per packet). Zero selects the default
	// of 8.
	UDPPoolSize int
	// UDPSessionIdle is how long a NAT-style UDP session (one external
	// socket per app flow) survives without traffic before the idle
	// sweeper expires it. Zero selects the default of one minute.
	UDPSessionIdle time.Duration

	// DNSInflightLimit caps how many pooled relay workers may sit in a
	// blocking DNS receive at once. Each DNS transaction parks its
	// worker for up to DNSTimeout, so against a dead (100%-timeout)
	// resolver an unbounded burst of queries wedges the entire pool for
	// seconds and starves relayed UDP. Queries beyond the cap are shed
	// and counted in UDPDropped — the bounded-resolver-queue behaviour
	// a stub resolver's retry logic expects. Zero selects
	// max(1, UDPPoolSize/2); negative disables the cap.
	DNSInflightLimit int

	// Record tagging for the crowd dataset dimensions.
	NetType string
	ISP     string
	Country string

	// Seed makes the engine's random choices reproducible.
	Seed int64
}

// Default returns MopEye's shipped configuration: every §3 optimisation
// on.
func Default() Config {
	return Config{
		ReadMode:               ReadBlocking,
		Workers:                1,
		WriteScheme:            QueueWriteNewPut,
		SpinThreshold:          512,
		Mapping:                MapLazy,
		MapWait:                50 * time.Millisecond,
		Protect:                ProtectDisallowed,
		BlockingConnectMeasure: true,
		DeferRegister:          true,
		MSS:                    tcpsm.DefaultMSS,
		Window:                 tcpsm.DefaultWindow,
		DNSTimeout:             5 * time.Second,
		UDPTimeout:             2 * time.Second,
		NetType:                "WiFi",
		ISP:                    "SimNet",
		Country:                "SG",
		Seed:                   1,
	}
}

// ToyVpn returns the unoptimised configuration the paper starts from:
// sleep-polled reads, direct writes, eager mapping, per-socket protect
// on the main thread, selector-event measurement.
func ToyVpn() Config {
	c := Default()
	c.ReadMode = ReadPoll
	c.PollInterval = 100 * time.Millisecond // the SDK sample's sleep
	c.WriteScheme = DirectWrite
	c.Mapping = MapEager
	c.Protect = ProtectPerSocketMainThread
	c.BlockingConnectMeasure = false
	c.DeferRegister = false
	return c
}
