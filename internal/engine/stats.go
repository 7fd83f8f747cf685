package engine

import (
	"sync/atomic"

	"repro/internal/stats"
)

// Stats aggregates engine activity.
type Stats struct {
	SYNs            int
	Established     int
	ConnectFailures int
	TCPMeasurements int
	DNSMeasurements int
	PacketsFromTun  int
	PacketsToTun    int
	BytesUp         int64
	BytesDown       int64
	PureACKs        int
	UDPRelayed      int
	DecodeErrors    int

	// DNSTimeouts counts relayed DNS transactions whose blocking
	// receive expired (§2.4 leaves retries to the app's resolver; the
	// failure is still worth surfacing).
	DNSTimeouts int
	// UDPDropped counts datagrams the relay shed without attempting
	// delivery: pooled job-queue overflow, a full NAT table whose every
	// session is mid-transaction, or the DNS inflight cap — UDP's
	// contract under flood.
	UDPDropped int
	// UDPNoResponse counts relayed non-DNS requests whose receive
	// window (Config.UDPTimeout) closed with nothing back. The request
	// went out and is gone as far as this transaction is concerned;
	// nothing is silent — every relayed datagram lands in exactly one
	// of UDPRelayed or UDPNoResponse.
	UDPNoResponse int

	// ReadBatches and BatchedPackets are always zero: the engine reads
	// the tunnel one packet at a time at every worker count. They
	// remain only because the benchmark module still reads them.
	ReadBatches    int
	BatchedPackets int

	// WriteHist is the tunnel-write delay as observed by the writing
	// thread; PutHist is the enqueue delay (Table 1).
	WriteHist stats.DelayHistogram
	PutHist   stats.DelayHistogram

	Mapping MappingStats
}

// counters holds the hot engine counters as atomics. The paper's engine
// could guard these with the one engine mutex because one MainWorker
// produced nearly all of them; with N workers (and the UDP/connect
// threads) updating concurrently, atomics keep the hot path free of a
// global lock and let Stats() snapshot without stalling the relay.
type counters struct {
	syns            atomic.Int64
	established     atomic.Int64
	connectFailures atomic.Int64
	tcpMeasurements atomic.Int64
	dnsMeasurements atomic.Int64
	packetsFromTun  atomic.Int64
	packetsToTun    atomic.Int64
	bytesUp         atomic.Int64
	bytesDown       atomic.Int64
	pureACKs        atomic.Int64
	udpRelayed      atomic.Int64
	decodeErrors    atomic.Int64
	dnsTimeouts     atomic.Int64
	udpDropped      atomic.Int64
	udpNoResponse   atomic.Int64

	// These have no Stats field; RegisterMetrics is their one reader.
	// tunReadErrors counts failed tunnel reads other than would-block
	// or closed: the reader exits on the first, so nonzero means the
	// relay has stopped. tunWriteErrors counts refused tunnel writes,
	// each a packet lost to the app. udpEvicted counts NAT sessions
	// evicted, idlest first, to admit a newcomer into a full table.
	// udpLate counts responses a later datagram's stale drain forwarded
	// after their own transaction was counted in udpNoResponse, so
	// udpLate <= udpNoResponse always. udpBytesUp and udpBytesDown are
	// relayed non-DNS UDP payload bytes.
	tunReadErrors  atomic.Int64
	tunWriteErrors atomic.Int64
	udpEvicted     atomic.Int64
	udpLate        atomic.Int64
	udpBytesUp     atomic.Int64
	udpBytesDown   atomic.Int64
}

// Stats snapshots the engine counters, folding in mapper and queue
// state. The counters are independent atomics, so the snapshot is not
// a single point in time; loading effects before their causes
// (measurements before established before SYNs) keeps the visible
// invariants — Established ≤ SYNs, TCPMeasurements ≤ Established —
// intact even while connections race the snapshot.
func (e *Engine) Stats() Stats {
	s := Stats{
		TCPMeasurements: int(e.ctr.tcpMeasurements.Load()),
		ConnectFailures: int(e.ctr.connectFailures.Load()),
		Established:     int(e.ctr.established.Load()),
		SYNs:            int(e.ctr.syns.Load()),
		DNSMeasurements: int(e.ctr.dnsMeasurements.Load()),
		PacketsFromTun:  int(e.ctr.packetsFromTun.Load()),
		PacketsToTun:    int(e.ctr.packetsToTun.Load()),
		BytesUp:         e.ctr.bytesUp.Load(),
		BytesDown:       e.ctr.bytesDown.Load(),
		PureACKs:        int(e.ctr.pureACKs.Load()),
		UDPRelayed:      int(e.ctr.udpRelayed.Load()),
		DecodeErrors:    int(e.ctr.decodeErrors.Load()),
		DNSTimeouts:     int(e.ctr.dnsTimeouts.Load()),
		UDPDropped:      int(e.ctr.udpDropped.Load()),
		UDPNoResponse:   int(e.ctr.udpNoResponse.Load()),
	}
	e.histMu.Lock()
	s.WriteHist = e.writeHist
	e.histMu.Unlock()
	s.Mapping = e.mapper.stats()
	if e.writeQ != nil {
		s.PutHist = e.writeQ.putHistogram()
	}
	return s
}

// ActiveClients reports the number of live spliced connections.
func (e *Engine) ActiveClients() int {
	return e.flows.Len()
}

// Workers reports how many packet-processing workers the engine runs
// (1 for the paper's single MainWorker, and always for the polled
// main loop).
func (e *Engine) Workers() int {
	return e.cfg.Workers
}
