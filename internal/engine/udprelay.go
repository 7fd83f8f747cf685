package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flowtable"
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
//   - a NAT-style session table (flowtable.Table keyed by the flow key)
//     maps each app flow to one external socket, created on first
//     datagram. A DNS session ends with its transaction, answered or
//     timed out: the last worker out removes it and closes its socket,
//     so each query has its own socket, as in the paper. Other UDP
//     reuses the session for every later datagram and expires after
//     udpSessionIdle without traffic. At maxUDPSessions the idlest
//     session is evicted (Stats.UDPEvicted) to admit the newcomer;
//   - a bounded worker pool (udpPoolSize goroutines) performs
//     the blocking relay work, fed by a bounded queue. When the queue
//     is full the datagram is dropped — UDP's contract — and counted.
//
// The packet path (MainWorker or a pinned worker) only hands the
// datagram to the queue with a non-blocking send, so an
// application-layer protocol can never block it (§2.4's requirement,
// kept under flood). The pool worker owns the table: it finds or
// creates the flow's session and starts its transaction in one step,
// so no session is retired between lookup and use.
//
// Idle expiry runs on a pool worker too: before its datagram, a worker
// sweeps if idle/2 of clock time has passed since the last sweep, so
// no janitor goroutine is needed and the subsystem's goroutine count
// stays exactly udpPoolSize.
//
// Every removal — a DNS transaction's end, the idle sweep, an eviction
// — first moves the session's inflight count to retired with a
// compare-and-swap, so a session is never closed under a worker
// mid-transaction, and then deletes it from the table only if the
// table still maps its flow to it.

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

// retired is a udpSession's inflight value once it has left the table:
// no worker may start a transaction on it, and its socket is closed.
const retired = -1

// udpSession is one NAT-style mapping: app flow -> external socket.
type udpSession struct {
	flow      packet.FlowKey
	sock      *sockets.UDPSocket
	dns       bool
	createdAt int64
	lastUsed  atomic.Int64
	// inflight counts pool workers mid-transaction on sock, or is
	// retired. A flow's datagrams can occupy several workers at once,
	// and only the first may drain stale responses: to a second, the
	// first's in-flight response looks stale, and stealing it leaves
	// the first to time out on a datagram that was in fact answered.
	inflight atomic.Int32

	// initOnce runs on a pool worker before the first relay: the
	// per-socket protect cost (when configured) and the app attribution
	// are paid off the packet path, like the TCP socket-connect thread
	// pays them (§3.3, §3.5.2).
	initOnce sync.Once
	app      string
}

// acquire starts a transaction on s. ok is false once s is retired;
// first reports that no other worker is mid-transaction on it.
func (s *udpSession) acquire() (first, ok bool) {
	for {
		n := s.inflight.Load()
		if n == retired {
			return false, false
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			return n == 0, true
		}
	}
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
	e        *Engine
	sessions *flowtable.Table[*udpSession]
	idle     time.Duration
	pool     int

	// dnsLimit, max(1, pool/2), caps the workers stuck in a blocking
	// DNS receive, those that have waited past DNSTimeout/dnsStuckFraction:
	// a dead resolver would otherwise wedge the whole pool for DNSTimeout
	// and starve relayed UDP. A live resolver answers within an RTT, so
	// its workers never count. Queries over the cap are shed and counted
	// in UDPDropped.
	dnsLimit int
	dnsStuck atomic.Int64

	// createMu serialises session creation, so the cap check and the
	// insert that follows it cannot interleave with another creator's.
	// It also guards stopping: once stop sets it, nothing is inserted.
	createMu sync.Mutex
	stopping bool

	jobs      chan *udpJob
	stopOnce  sync.Once
	wg        sync.WaitGroup
	lastSweep atomic.Int64
}

func newUDPRelay(e *Engine) *udpRelay {
	return &udpRelay{
		e:        e,
		sessions: flowtable.New[*udpSession](0),
		idle:     udpSessionIdle,
		pool:     udpPoolSize,
		dnsLimit: max(1, udpPoolSize/2),
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
// session is created, so the drain leaves the table empty for good;
// closing every drained socket releases any worker still blocked in a
// receive, and the queued jobs then end at once.
func (r *udpRelay) stop() {
	r.stopOnce.Do(func() {
		close(r.jobs)
		r.createMu.Lock()
		r.stopping = true
		r.createMu.Unlock()
		for _, s := range r.sessions.Drain() {
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

// session starts a transaction on the flow's live session, creating
// the session if needed; first reports that no other worker is
// mid-transaction on it. A nil session means the relay is stopping, or
// every session in a full NAT table is mid-transaction and the datagram
// was dropped.
func (r *udpRelay) session(flow packet.FlowKey, now int64) (s *udpSession, first bool) {
	if s, first, ok := r.lookup(flow, now); ok {
		return s, first
	}
	r.createMu.Lock()
	defer r.createMu.Unlock()
	if r.stopping {
		return nil, false
	}
	// Another worker may have created it while this one waited.
	if s, first, ok := r.lookup(flow, now); ok {
		return s, first
	}
	for r.sessions.Len() >= maxUDPSessions {
		if !r.evictIdlest() {
			r.e.ctr.udpDropped.Add(1)
			return nil, false
		}
	}
	s = &udpSession{
		flow:      flow,
		sock:      r.e.prov.OpenUDP(),
		dns:       flow.Dst.Port() == 53,
		createdAt: now,
	}
	// Published mid-transaction and stamped: no sweep or eviction can
	// retire it before this worker is done with it.
	s.inflight.Store(1)
	s.lastUsed.Store(now)
	r.sessions.Put(flow, s)
	return s, true
}

// lookup starts a transaction on the flow's session in the table, if it
// is live. A retired one is deleted, so a new session can take its
// place.
func (r *udpRelay) lookup(flow packet.FlowKey, now int64) (s *udpSession, first, ok bool) {
	s, ok = r.sessions.Get(flow)
	if !ok {
		return nil, false, false
	}
	if first, ok = s.acquire(); !ok {
		flowtable.CompareAndDelete(r.sessions, flow, s)
		return nil, false, false
	}
	s.lastUsed.Store(now)
	return s, first, true
}

// evictIdlest retires the least recently used session that no worker
// is using, reporting whether it found one.
func (r *udpRelay) evictIdlest() bool {
	for {
		var idlest *udpSession
		r.sessions.Range(func(_ packet.FlowKey, s *udpSession) bool {
			if s.inflight.Load() == 0 && (idlest == nil || s.lastUsed.Load() < idlest.lastUsed.Load()) {
				idlest = s
			}
			return true
		})
		if idlest == nil {
			return false
		}
		// A worker may have picked it up since the scan; then look again.
		if idlest.inflight.CompareAndSwap(0, retired) {
			r.remove(idlest)
			r.e.ctr.udpEvicted.Add(1)
			return true
		}
	}
}

// remove deletes a retired session from the table, if the table still
// maps its flow to it, and closes its socket.
func (r *udpRelay) remove(s *udpSession) {
	flowtable.CompareAndDelete(r.sessions, s.flow, s)
	s.sock.Close()
}

// release ends a transaction on s. The last worker out of a DNS
// session retires and removes it: the query has had its answer or its
// timeout.
func (r *udpRelay) release(s *udpSession) {
	for {
		n := s.inflight.Load()
		next := n - 1
		if next == 0 && s.dns {
			next = retired
		}
		if s.inflight.CompareAndSwap(n, next) {
			if next == retired {
				r.remove(s)
			}
			return
		}
	}
}

// maybeSweep runs an idle sweep every idle/2 of clock time; of the
// workers that see it due, one sweeps.
func (r *udpRelay) maybeSweep(now int64) {
	last := r.lastSweep.Load()
	if now-last >= int64(r.idle/2) && r.lastSweep.CompareAndSwap(last, now) {
		r.sweep(now)
	}
}

// sweep expires sessions idle past the deadline that no worker is
// using: delete from the table first (so a later datagram creates a
// replacement), then close.
func (r *udpRelay) sweep(now int64) {
	cutoff := now - int64(r.idle)
	removed := r.sessions.DeleteFunc(func(_ packet.FlowKey, s *udpSession) bool {
		return s.lastUsed.Load() < cutoff && s.inflight.CompareAndSwap(0, retired)
	})
	for _, s := range removed {
		s.sock.Close()
	}
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
	now := r.e.clk.Nanos()
	r.maybeSweep(now)
	s, first := r.session(j.flow, now)
	if s == nil {
		return
	}
	defer r.release(s)
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
		r.e.dnsTransaction(s, j.payload)
	} else {
		r.e.udpForward(s, j.payload)
	}
	s.lastUsed.Store(r.e.clk.Nanos())
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

// ActiveUDPSessions reports the live NAT-style UDP session count: the
// non-DNS flows seen within udpSessionIdle plus the DNS queries still
// awaiting their answer or timeout.
func (e *Engine) ActiveUDPSessions() int {
	return e.udp.sessions.Len()
}
