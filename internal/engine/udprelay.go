package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/sockets"
)

// The pooled UDP relay subsystem.
//
// The paper handles each UDP/DNS datagram in a temporary thread (§2.4):
// open a socket, blocking send, blocking receive, tear down. That is
// the right shape for one phone — a handful of DNS queries per page —
// but under a datagram flood it spawns one goroutine and one socket per
// packet. This subsystem keeps the per-datagram blocking semantics (the
// DNS measurement still timestamps immediately around the blocking
// send/receive pair) while bounding both resources:
//
//   - a NAT-style session table (a map keyed by the flow key) maps each
//     app flow to one external socket, created on first datagram. A DNS
//     session ends with its transaction, answered or timed out: the
//     last worker out removes it and closes its socket, so each query
//     has its own socket, as in the paper. Other UDP reuses the session
//     for every later datagram and expires after udpSessionIdle without
//     traffic. At maxUDPSessions the idlest session is evicted
//     (Stats.UDPEvicted) to admit the newcomer;
//   - a bounded worker pool (udpPoolSize goroutines) performs
//     the blocking relay work, fed by a bounded queue. When the queue
//     is full the datagram is dropped — UDP's contract — and counted.
//
// The packet path (MainWorker or a pinned worker) only hands the
// datagram to the queue with a non-blocking send, so an
// application-layer protocol can never block it (§2.4's requirement,
// kept under flood). Only the pool workers change the table, and each
// holds its one mutex twice per datagram: acquire finds or creates the
// flow's session and starts its transaction on it, release ends the
// transaction. A session mid-transaction is never swept or evicted, so
// no socket is closed under a worker; a removed session's socket is
// closed after the lock is dropped.
//
// Idle expiry runs on a pool worker too: acquire sweeps if idle/2 of
// clock time has passed since the last sweep, so no janitor goroutine
// is needed and the subsystem's goroutine count stays exactly
// udpPoolSize.

// The pool and the session lifetime. Variables only so a test can
// shorten them; nothing else writes them.
var (
	// udpPoolSize is enough for several concurrent blocked
	// transactions without approaching goroutine-per-datagram under
	// flood.
	udpPoolSize = 8
	// udpSessionIdle expires non-DNS NAT sessions after a minute
	// without traffic, the magnitude home-router UDP conntrack entries
	// use.
	udpSessionIdle = time.Minute
	// maxUDPSessions caps the NAT table: a distinct-flow datagram
	// flood must not create sockets without limit. At the cap a new
	// flow evicts the idlest session that no worker is using
	// (NAT-table exhaustion pays a scan, like a real conntrack table
	// under pressure).
	maxUDPSessions = 4096
)

// udpJobQueueDepth bounds datagrams waiting for a pool worker; beyond
// it the relay drops, as a full NIC ring would.
const udpJobQueueDepth = 1024

// udpSession is one NAT-style mapping: app flow -> external socket.
type udpSession struct {
	flow      packet.FlowKey
	sock      *sockets.UDPSocket
	dns       bool
	createdAt int64

	// lastUsed and inflight are guarded by udpRelay.mu. inflight
	// counts pool workers mid-transaction on sock. A flow's datagrams
	// can occupy several workers at once, and only the first may drain
	// stale responses: to a second, the first's in-flight response
	// looks stale, and stealing it leaves the first to time out on a
	// datagram that was in fact answered.
	lastUsed int64
	inflight int

	// initOnce runs on a pool worker before the first relay: the
	// per-socket protect cost (when configured) and the app attribution
	// are paid off the packet path, like the TCP socket-connect thread
	// pays them (§3.3, §3.5.2).
	initOnce sync.Once
	app      string
}

// init pays the one-time session costs on the calling pool worker.
func (s *udpSession) init(e *Engine) {
	s.initOnce.Do(func() {
		if e.cfg.Protect == ProtectPerSocket || e.cfg.Protect == ProtectPerSocketMainThread {
			s.sock.Protect()
		}
		if !s.dns {
			s.app = e.mapper.resolveUDP(s.flow.Src, s.createdAt).Name
		}
	})
}

// udpJob is one datagram awaiting a pool worker. The queue holds
// pointers: as values its 1,024 slots would pin 96 KB per engine.
type udpJob struct {
	flow    packet.FlowKey
	payload []byte
}

// udpRelay owns the session table and the worker pool.
type udpRelay struct {
	e    *Engine
	idle time.Duration
	pool int

	// dnsLimit, max(1, pool/2), caps the workers stuck in a blocking
	// DNS receive, those that have waited past DNSTimeout/dnsStuckFraction:
	// a dead resolver would otherwise wedge the whole pool for DNSTimeout
	// and starve relayed UDP. A live resolver answers within an RTT, so
	// its workers never count. Queries over the cap are shed and counted
	// in UDPDropped.
	dnsLimit int
	dnsStuck atomic.Int64

	// mu guards the table, every session's inflight and lastUsed,
	// lastSweep and stopping. Once stop sets stopping, nothing is
	// inserted.
	mu        sync.Mutex
	sessions  map[packet.FlowKey]*udpSession
	lastSweep int64
	stopping  bool

	jobs     chan *udpJob
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newUDPRelay(e *Engine) *udpRelay {
	return &udpRelay{
		e:        e,
		idle:     udpSessionIdle,
		pool:     udpPoolSize,
		dnsLimit: max(1, udpPoolSize/2),
		sessions: make(map[packet.FlowKey]*udpSession),
		jobs:     make(chan *udpJob, udpJobQueueDepth),
	}
}

func (r *udpRelay) start() {
	for i := 0; i < r.pool; i++ {
		r.wg.Add(1)
		go r.worker()
	}
}

// stop closes the pool. The packet-processing threads have already
// exited (the engine waits for them first), so no new jobs can arrive
// and closing the channel cannot race a relay. Once stopping is set no
// session is created, so taking the table empties it for good; closing
// every taken socket releases any worker still blocked in a receive,
// and the queued jobs then end at once.
func (r *udpRelay) stop() {
	r.stopOnce.Do(func() {
		close(r.jobs)
		r.mu.Lock()
		r.stopping = true
		sessions := r.sessions
		r.sessions = nil
		r.mu.Unlock()
		for _, s := range sessions {
			s.sock.Close()
		}
		r.wg.Wait()
	})
}

// relay is the packet-path entry: a non-blocking hand-off to the pool.
// A full queue drops the datagram.
func (r *udpRelay) relay(flow packet.FlowKey, payload []byte) {
	select {
	case r.jobs <- &udpJob{flow: flow, payload: payload}:
	default:
		r.e.ctr.udpDropped.Add(1)
	}
}

// acquire starts a transaction on the flow's session, creating the
// session if needed; first reports that no other worker is
// mid-transaction on it. A nil session means the relay is stopping, or
// every session in a full NAT table is mid-transaction and the datagram
// was dropped. expired holds the sessions the idle sweep or an eviction
// removed: the caller closes their sockets.
func (r *udpRelay) acquire(flow packet.FlowKey, now int64) (s *udpSession, first bool, expired []*udpSession) {
	r.mu.Lock()
	if r.stopping {
		r.mu.Unlock()
		return nil, false, nil
	}
	if now-r.lastSweep >= int64(r.idle/2) {
		// The idle sweep: expire what no worker is using and nothing
		// has touched within the deadline.
		r.lastSweep = now
		cutoff := now - int64(r.idle)
		for k, x := range r.sessions {
			if x.inflight == 0 && x.lastUsed < cutoff {
				delete(r.sessions, k)
				expired = append(expired, x)
			}
		}
	}
	s = r.sessions[flow]
	if s == nil {
		if len(r.sessions) >= maxUDPSessions {
			idlest := r.idlest()
			if idlest == nil {
				r.mu.Unlock()
				r.e.ctr.udpDropped.Add(1)
				return nil, false, expired
			}
			delete(r.sessions, idlest.flow)
			expired = append(expired, idlest)
			r.e.ctr.udpEvicted.Add(1)
		}
		s = &udpSession{
			flow:      flow,
			sock:      r.e.prov.OpenUDP(),
			dns:       flow.Dst.Port() == 53,
			createdAt: now,
		}
		r.sessions[flow] = s
	}
	first = s.inflight == 0
	s.inflight++
	s.lastUsed = now
	r.mu.Unlock()
	return s, first, expired
}

// release ends a transaction on s. The last worker out of a DNS
// session removes it, if the table still holds it, and closes its
// socket: the query has had its answer or its timeout.
func (r *udpRelay) release(s *udpSession, now int64) {
	r.mu.Lock()
	s.inflight--
	s.lastUsed = now
	done := s.dns && s.inflight == 0 && r.sessions[s.flow] == s
	if done {
		delete(r.sessions, s.flow)
	}
	r.mu.Unlock()
	if done {
		s.sock.Close()
	}
}

// idlest returns the least recently used session that no worker is
// using, or nil if every session is mid-transaction. The caller holds
// r.mu.
func (r *udpRelay) idlest() *udpSession {
	var idlest *udpSession
	for _, s := range r.sessions {
		if s.inflight == 0 && (idlest == nil || s.lastUsed < idlest.lastUsed) {
			idlest = s
		}
	}
	return idlest
}

// worker is one pooled relay thread.
func (r *udpRelay) worker() {
	defer r.wg.Done()
	for j := range r.jobs {
		r.process(j)
	}
}

// process performs one datagram's blocking relay on the pool worker.
func (r *udpRelay) process(j *udpJob) {
	s, first, expired := r.acquire(j.flow, r.e.clk.Nanos())
	for _, x := range expired {
		x.sock.Close()
	}
	if s == nil {
		return
	}
	r.transact(s, first, j.payload)
	r.release(s, r.e.clk.Nanos())
}

// transact relays one datagram on s, which the calling worker holds.
func (r *udpRelay) transact(s *udpSession, first bool, payload []byte) {
	if s.sock.Closed() {
		return // stop closed every socket: teardown, not a transaction
	}
	s.init(r.e)
	if first {
		r.drainStale(s)
	}
	if s.dns {
		if r.dnsStuck.Load() >= int64(r.dnsLimit) {
			// dnsLimit workers already wait on a resolver that does not
			// answer: shed this query instead of parking another worker
			// on it. The drop is counted.
			r.e.ctr.udpDropped.Add(1)
			return
		}
		r.e.dnsTransaction(s, payload)
	} else {
		r.e.udpForward(s, payload)
	}
}

// dnsStuckFraction sets when a DNS receive counts as stuck: after
// DNSTimeout/dnsStuckFraction of waiting, 1 s at the default timeout.
const dnsStuckFraction = 5

// errDNSShed reports a DNS query given up because dnsLimit workers were
// already stuck when its own wait became stuck.
var errDNSShed = errors.New("engine: DNS query shed")

// dnsRecv waits up to DNSTimeout for the response to a DNS query sent
// on sock. A wait that outlasts DNSTimeout/dnsStuckFraction becomes
// stuck; if dnsLimit waits already are, it ends with errDNSShed, so a
// dead resolver parks at most dnsLimit workers for the full timeout.
func (r *udpRelay) dnsRecv(sock *sockets.UDPSocket) ([]byte, error) {
	timeout := r.e.cfg.DNSTimeout
	grace := timeout / dnsStuckFraction
	resp, err := sock.Recv(grace)
	if !errors.Is(err, sockets.ErrRecvTimeout) {
		return resp, err
	}
	if r.dnsStuck.Add(1) > int64(r.dnsLimit) {
		r.dnsStuck.Add(-1)
		return nil, errDNSShed
	}
	defer r.dnsStuck.Add(-1)
	return sock.Recv(timeout - grace)
}

// drainStale forwards responses that arrived on the session socket
// after an earlier datagram's receive window closed — a NAT forwards
// late responses for as long as the mapping lives. They bypass the DNS
// measurement (their transaction already timed out and was counted),
// and they count as UDPLateRelayed rather than UDPRelayed: their
// originating request was already accounted under UDPNoResponse, so
// folding them into UDPRelayed would double-book the datagram.
func (r *udpRelay) drainStale(s *udpSession) {
	for {
		resp, ok := s.sock.TryRecv()
		if !ok {
			return
		}
		if !s.dns {
			r.e.ctr.udpLate.Add(1)
			r.e.ctr.udpBytesDown.Add(int64(len(resp)))
			r.e.traffic.udp(s.app, 0, int64(len(resp)))
		}
		r.e.emit(packet.UDPPacket(s.flow.Dst, s.flow.Src, resp))
	}
}

// ActiveUDPSessions reports the live NAT-style UDP session count, the
// table's length read under the relay's lock: the non-DNS flows seen
// within udpSessionIdle plus the DNS queries still awaiting their
// answer or timeout.
func (e *Engine) ActiveUDPSessions() int {
	e.udp.mu.Lock()
	defer e.udp.mu.Unlock()
	return len(e.udp.sessions)
}
