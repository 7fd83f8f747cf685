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
//     datagram, reused for every subsequent one, and expired after
//     udpSessionIdle without traffic;
//   - a bounded worker pool (udpPoolSize goroutines) performs
//     the blocking relay work, fed by a bounded queue. When the queue
//     is full the datagram is dropped — UDP's contract — and counted.
//
// The packet path (MainWorker or a pinned worker) only does a table hit
// and a non-blocking enqueue, so an application-layer protocol can
// never block it (§2.4's requirement, kept under flood).
//
// Idle expiry runs as an ordinary pool job: the enqueue path
// occasionally (every idle/2) schedules a sweep instead of a dedicated
// janitor goroutine, keeping the subsystem's goroutine count exactly
// udpPoolSize.

// The pool and the session lifetime. Variables only so a test can
// shorten them; nothing else writes them.
var (
	// udpPoolSize is enough for several concurrent blocked
	// transactions without approaching goroutine-per-datagram under
	// flood.
	udpPoolSize = 8
	// udpSessionIdle expires NAT sessions after a minute without
	// traffic, the magnitude home-router UDP conntrack entries use.
	udpSessionIdle = time.Minute
)

// udpJobQueueDepth bounds datagrams waiting for a pool worker; beyond
// it the relay drops, as a full NIC ring would.
const udpJobQueueDepth = 1024

// maxUDPSessions caps the NAT table: a distinct-flow datagram flood
// must not create sockets without limit. At the cap the relay first
// tries an inline sweep (NAT-table exhaustion pays a scan, like a real
// conntrack table under pressure); if nothing was reclaimable the
// datagram is dropped and counted.
const maxUDPSessions = 4096

// udpSession is one NAT-style mapping: app flow -> external socket.
type udpSession struct {
	flow      packet.FlowKey
	sock      *sockets.UDPSocket
	dns       bool
	createdAt int64
	lastUsed  atomic.Int64
	// inflight counts pool workers mid-transaction on sock. A flow's
	// datagrams can occupy several workers at once, and only the first
	// may drain stale responses: to a second, the first's in-flight
	// response looks stale, and stealing it leaves the first to time
	// out on a datagram that was in fact answered.
	inflight atomic.Int32

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

// udpJob is one datagram awaiting a pool worker; a nil session marks a
// sweep request.
type udpJob struct {
	sess    *udpSession
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

	jobs      chan udpJob
	stopOnce  sync.Once
	stopping  atomic.Bool
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
		jobs:     make(chan udpJob, udpJobQueueDepth),
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
// and closing the channel cannot race an enqueue; closing every
// session socket releases any worker still blocked in a receive, and
// the queue drains fast against closed sockets.
func (r *udpRelay) stop() {
	r.stopOnce.Do(func() {
		r.stopping.Store(true)
		close(r.jobs)
		for _, s := range r.sessions.Drain() {
			s.sock.Close()
		}
		r.wg.Wait()
	})
}

// relay is the packet-path entry: session lookup/create plus a
// non-blocking enqueue. Called from MainWorker or a pinned worker, so
// per-flow it is serial; the PutIfAbsent guards the polled single-
// worker loop's interleavings all the same.
func (r *udpRelay) relay(flow packet.FlowKey, payload []byte) {
	now := r.e.clk.Nanos()
	sess := r.session(flow, now)
	if sess == nil {
		r.e.ctr.udpDropped.Add(1)
		return
	}
	if !r.enqueue(udpJob{sess: sess, payload: payload}) {
		r.e.ctr.udpDropped.Add(1)
	}
	r.maybeSweep(now)
}

// session returns the flow's live session, creating one if needed. A
// nil return means the NAT table is exhausted and the datagram must be
// dropped.
func (r *udpRelay) session(flow packet.FlowKey, now int64) *udpSession {
	sess, ok := r.sessions.Get(flow)
	if ok && sess.sock.Closed() {
		// Lost a race with the idle sweeper: the entry is gone from the
		// table (the sweeper deletes before closing), so make a new one.
		ok = false
	}
	if !ok {
		if r.sessions.Len() >= maxUDPSessions {
			// NAT-table exhaustion: reclaim idle sessions inline; if the
			// flood is all live flows, shed this datagram.
			r.sweep()
			if r.sessions.Len() >= maxUDPSessions {
				return nil
			}
		}
		fresh := &udpSession{
			flow:      flow,
			sock:      r.e.prov.OpenUDP(),
			dns:       flow.Dst.Port() == 53,
			createdAt: now,
		}
		// Stamp before publishing: a session entering the table with a
		// zero lastUsed would look idle-since-epoch to a concurrently
		// running sweep and be expired before its first datagram.
		fresh.lastUsed.Store(now)
		if winner, stored := r.sessions.PutIfAbsent(flow, fresh); stored {
			sess = fresh
		} else {
			fresh.sock.Close()
			sess = winner
		}
	}
	sess.lastUsed.Store(now)
	return sess
}

// enqueue hands a job to the pool without ever blocking the caller,
// reporting whether it was accepted (false means queue overflow).
// Lock-free by the lifecycle invariant stop() documents: every
// enqueuer is a packet-processing thread the engine joins before the
// channel closes, so a send can never race the close.
func (r *udpRelay) enqueue(j udpJob) bool {
	select {
	case r.jobs <- j:
		return true
	default:
		return false
	}
}

// maybeSweep schedules an idle sweep every idle/2 of clock time. A
// sweep is never lost to queue overflow — under exactly that pressure
// reclaiming sessions matters most — so on overflow it runs inline.
func (r *udpRelay) maybeSweep(now int64) {
	last := r.lastSweep.Load()
	if now-last < int64(r.idle/2) {
		return
	}
	if r.lastSweep.CompareAndSwap(last, now) {
		if !r.enqueue(udpJob{}) {
			r.sweep()
		}
	}
}

// sweep expires sessions idle past the deadline: delete from the table
// first (so the packet path creates replacements), then close.
func (r *udpRelay) sweep() {
	cutoff := r.e.clk.Nanos() - int64(r.idle)
	removed := r.sessions.DeleteFunc(func(_ packet.FlowKey, s *udpSession) bool {
		return s.lastUsed.Load() < cutoff
	})
	for _, s := range removed {
		s.sock.Close()
	}
}

// worker is one pooled relay thread.
func (r *udpRelay) worker() {
	defer r.wg.Done()
	for j := range r.jobs {
		if j.sess == nil {
			r.sweep()
			continue
		}
		r.process(j)
	}
}

// process performs one datagram's blocking relay on the pool worker.
func (r *udpRelay) process(j udpJob) {
	s := j.sess
	if s.sock.Closed() {
		// The idle sweeper expired the session between enqueue and now.
		// Replace it transparently (unless the whole relay is shutting
		// down, where closed sockets mean teardown, not expiry).
		if r.stopping.Load() {
			return
		}
		if s = r.session(s.flow, r.e.clk.Nanos()); s == nil {
			r.e.ctr.udpDropped.Add(1)
			return
		}
	}
	s.init(r.e)
	if s.inflight.Add(1) == 1 {
		r.drainStale(s)
	}
	defer s.inflight.Add(-1)
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

// ActiveUDPSessions reports the live NAT-style UDP session count.
func (e *Engine) ActiveUDPSessions() int {
	return e.udp.sessions.Len()
}
