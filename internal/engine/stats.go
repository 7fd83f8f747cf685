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

	// TunReadErrors counts tunnel reads that failed with anything other
	// than would-block or closed. The reader exits on the first one and
	// the workers follow, so a nonzero value on a running engine means
	// it has stopped relaying.
	TunReadErrors int
	// TunWriteErrors counts tunnel writes that failed with anything
	// other than closed — an oversized packet (tun.ErrTooBig), or an
	// I/O error on a real device. The packet is lost to the app; the
	// relay carries on.
	TunWriteErrors int

	// DNSTimeouts counts relayed DNS transactions whose blocking
	// receive expired (§2.4 leaves retries to the app's resolver; the
	// failure is still worth surfacing).
	DNSTimeouts int
	// UDPDropped counts datagrams the relay shed without attempting
	// delivery: pooled job-queue overflow, NAT-table exhaustion, or the
	// DNS inflight cap — UDP's contract under flood.
	UDPDropped int
	// UDPNoResponse counts relayed non-DNS requests whose receive
	// window (Config.UDPTimeout) closed with nothing back. The request
	// went out and is gone as far as this transaction is concerned;
	// nothing is silent — every relayed datagram lands in exactly one
	// of UDPRelayed or UDPNoResponse.
	UDPNoResponse int
	// UDPLateRelayed counts responses forwarded by a later datagram's
	// stale drain after their own transaction had already been counted
	// in UDPNoResponse (a NAT forwards late responses for as long as
	// the mapping lives). Kept separate from UDPRelayed so the
	// per-datagram accounting identity stays exact:
	// UDPLateRelayed ≤ UDPNoResponse always.
	UDPLateRelayed int
	// UDPBytesUp/UDPBytesDown are relayed non-DNS UDP payload volumes
	// (app->server / server->app).
	UDPBytesUp   int64
	UDPBytesDown int64

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
	tunReadErrors   atomic.Int64
	tunWriteErrors  atomic.Int64
	dnsTimeouts     atomic.Int64
	udpDropped      atomic.Int64
	udpNoResponse   atomic.Int64
	udpLate         atomic.Int64
	udpBytesUp      atomic.Int64
	udpBytesDown    atomic.Int64
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
		TunReadErrors:   int(e.ctr.tunReadErrors.Load()),
		TunWriteErrors:  int(e.ctr.tunWriteErrors.Load()),
		DNSTimeouts:     int(e.ctr.dnsTimeouts.Load()),
		UDPDropped:      int(e.ctr.udpDropped.Load()),
		UDPNoResponse:   int(e.ctr.udpNoResponse.Load()),
		UDPLateRelayed:  int(e.ctr.udpLate.Load()),
		UDPBytesUp:      e.ctr.udpBytesUp.Load(),
		UDPBytesDown:    e.ctr.udpBytesDown.Load(),
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
