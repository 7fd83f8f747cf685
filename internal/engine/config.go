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

import "time"

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
	ReadMode ReadMode
	// PollInterval is the sleep between empty polls. ReadPoll requires
	// a positive value; ReadBlocking never polls.
	PollInterval time.Duration

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

	// MainLoopPoll, when positive, makes the MainWorker wait out a
	// fixed sleep where it would block in Select (§3.2), then drain
	// whatever sockets and tunnel packets have accumulated. This is the
	// single-threaded loop structure of poll-based relays like
	// Haystack; it batches both directions and is the mechanism behind
	// their throughput collapse (Table 3).
	MainLoopPoll time.Duration

	WriteScheme WriteScheme
	Mapping     MappingMode
	Protect     ProtectMode

	// BlockingConnectMeasure runs connect() in a temporary blocking
	// thread and timestamps around it (§2.4). When false, the engine
	// uses a non-blocking connect and timestamps at the selector event,
	// exposing the dispatch-noise inaccuracy the paper fixed.
	BlockingConnectMeasure bool

	// PerPacketCost charges extra main-thread work per relayed data
	// packet (zero for MopEye; the Haystack baseline uses it to model
	// traffic content inspection). When positive, every relayed packet
	// also counts as inspected on the resource meter.
	PerPacketCost time.Duration

	// DNSTimeout bounds each relayed DNS transaction (§2.4).
	DNSTimeout time.Duration
	// UDPTimeout bounds one relayed non-DNS datagram's wait for its
	// response; a response later than that is forwarded by the flow's
	// next datagram. It does not bound the association: a non-DNS NAT
	// session lives until udpSessionIdle (1 min) passes without
	// traffic.
	UDPTimeout time.Duration

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
		Mapping:                MapLazy,
		Protect:                ProtectDisallowed,
		BlockingConnectMeasure: true,
		DNSTimeout:             5 * time.Second,
		UDPTimeout:             2 * time.Second,
		Seed:                   1,
	}
}

// ToyVpn returns the unoptimised configuration the paper starts from:
// sleep-polled reads, direct writes, eager mapping, per-socket protect
// on the main thread, selector-event measurement. §3.4's main-thread
// register() cost is not modelled: every configuration registers a
// flow's socket in its connect thread, after the handshake.
func ToyVpn() Config {
	c := Default()
	c.ReadMode = ReadPoll
	c.PollInterval = 100 * time.Millisecond // the SDK sample's sleep
	c.WriteScheme = DirectWrite
	c.Mapping = MapEager
	c.Protect = ProtectPerSocketMainThread
	c.BlockingConnectMeasure = false
	return c
}
