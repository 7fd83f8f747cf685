package engine

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
	"repro/internal/sockets"
)

// Tests of the UDP NAT table alone: acquire and release called
// directly with explicit timestamps, no pool worker, no sleep and no
// network. The end-to-end lifecycle is in udprelay_test.go.

// newTableRelay returns a relay whose engine has only what the table
// touches: a socket provider and the counters. Nothing is started.
func newTableRelay() *udpRelay {
	e := &Engine{prov: sockets.NewProvider(nil, clock.NewReal(), netip.MustParseAddr("10.0.0.9"), sockets.CostModel{}, 1)}
	e.udp = newUDPRelay(e)
	return e.udp
}

// udpFlow is the i-th app flow to dstPort.
func udpFlow(i int, dstPort uint16) packet.FlowKey {
	return packet.FlowKey{
		Proto: packet.ProtoUDP,
		Src:   netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), uint16(40000+i)),
		Dst:   netip.AddrPortFrom(netip.MustParseAddr("203.0.113.5"), dstPort),
	}
}

// hold starts a transaction on flow at the given instant, closing what
// acquire expired as process does, and returns the held session.
func hold(t *testing.T, r *udpRelay, flow packet.FlowKey, at int64) *udpSession {
	t.Helper()
	s, _, expired := r.acquire(flow, at)
	for _, x := range expired {
		x.sock.Close()
	}
	if s == nil {
		t.Fatalf("acquire(%v, %d) refused", flow, at)
	}
	return s
}

// use runs one whole transaction on flow at the given instant.
func use(t *testing.T, r *udpRelay, flow packet.FlowKey, at int64) *udpSession {
	t.Helper()
	s := hold(t, r, flow, at)
	r.release(s, at)
	return s
}

// TestUDPTableIdleExpiryBoundaries pins the sweep's strict
// `lastUsed < now - idle` cutoff: a session whose last datagram landed
// exactly one idle period ago is not expired (so an app ticking at
// exactly the idle period never loses its NAT mapping), one tick more
// expires it, a zero idle window expires everything except sessions
// touched at the sweep instant, and a session mid-transaction is never
// swept however stale. The swept sessions go back to the caller with
// their sockets still open: it closes them after the lock is dropped.
//
// It repeats under the race detector with the NAT table's other tests:
// the table is one map behind one mutex that concurrent pool workers
// take.
//
//race:repeat 20
func TestUDPTableIdleExpiryBoundaries(t *testing.T) {
	const now = int64(1_000_000)
	cases := []struct {
		name     string
		idle     int64
		lastUsed []int64 // per-session timestamps
		held     []bool  // mid-transaction at the sweep (nil: none)
		expire   []bool  // expected expiry per session
	}{
		{
			name:     "exactly at the idle boundary survives",
			idle:     100,
			lastUsed: []int64{now - 100},
			expire:   []bool{false},
		},
		{
			name:     "one tick past the boundary expires",
			idle:     100,
			lastUsed: []int64{now - 101},
			expire:   []bool{true},
		},
		{
			name:     "zero idle keeps only the current instant",
			idle:     0,
			lastUsed: []int64{now, now - 1, now - 100, 0},
			expire:   []bool{false, true, true, true},
		},
		{
			name:     "mixed population straddling the cutoff",
			idle:     50,
			lastUsed: []int64{now, now - 49, now - 50, now - 51, now - 500},
			expire:   []bool{false, false, false, true, true},
		},
		{
			name:     "future timestamp never expires",
			idle:     50,
			lastUsed: []int64{now + 1000},
			expire:   []bool{false},
		},
		{
			name:     "a session mid-transaction is never swept",
			idle:     50,
			lastUsed: []int64{0, 0, now - 500},
			held:     []bool{true, false, true},
			expire:   []bool{false, true, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTableRelay()
			// No sweep while the table fills: its timestamps straddle
			// each other.
			r.idle = 1 << 62
			sessions := make([]*udpSession, len(tc.lastUsed))
			for i, lu := range tc.lastUsed {
				if tc.held != nil && tc.held[i] {
					sessions[i] = hold(t, r, udpFlow(i, 9999), lu)
				} else {
					sessions[i] = use(t, r, udpFlow(i, 9999), lu)
				}
			}
			r.idle = time.Duration(tc.idle)
			r.lastSweep = now - tc.idle/2 // a sweep is due at now
			probe := udpFlow(len(tc.lastUsed), 9999)
			s, _, expired := r.acquire(probe, now)
			if s == nil {
				t.Fatal("probe refused")
			}
			gone := map[*udpSession]bool{}
			for _, x := range expired {
				gone[x] = true
				if x.sock.Closed() {
					t.Errorf("session %v closed under the lock; the caller closes it", x.flow)
				}
			}
			want := 0
			for i, s := range sessions {
				if tc.expire[i] {
					want++
				}
				if gone[s] != tc.expire[i] {
					t.Errorf("session %d (lastUsed %d): expired %v, want %v; the cutoff is strict `<`", i, tc.lastUsed[i], gone[s], tc.expire[i])
				}
				if _, present := r.sessions[s.flow]; present == tc.expire[i] {
					t.Errorf("session %d (lastUsed %d): in the table %v, want %v", i, tc.lastUsed[i], present, !tc.expire[i])
				}
			}
			if len(expired) != want {
				t.Errorf("sweep returned %d sessions, want %d", len(expired), want)
			}
			if got := r.e.ActiveUDPSessions(); got != len(sessions)-want+1 {
				t.Errorf("ActiveUDPSessions = %d after the sweep, want %d", got, len(sessions)-want+1)
			}
		})
	}
}

// TestUDPTableSweepsEveryHalfIdle pins the sweep's cadence: acquire
// sweeps once idle/2 has passed since the last sweep, and not before,
// even with a session already idle past the window.
//
// It repeats under the race detector with the NAT table's other tests:
// the table is one map behind one mutex that concurrent pool workers
// take.
//
//race:repeat 20
func TestUDPTableSweepsEveryHalfIdle(t *testing.T) {
	const idle = 100
	r := newTableRelay()
	r.idle = idle
	stale := use(t, r, udpFlow(0, 9999), 120) // sweeps at 120
	fresh := use(t, r, udpFlow(1, 9999), 200) // sweeps at 200: stale is 80 idle
	if _, _, expired := r.acquire(udpFlow(2, 9999), 200+idle/2-1); len(expired) != 0 {
		t.Fatalf("acquire swept %d ns after the last sweep, before idle/2", idle/2-1)
	}
	if r.sessions[stale.flow] != stale {
		t.Fatal("session left the table with no sweep due")
	}
	_, _, expired := r.acquire(udpFlow(2, 9999), 200+idle/2)
	if len(expired) != 1 || expired[0] != stale {
		t.Fatalf("due sweep expired %d sessions, want the one idle past the window", len(expired))
	}
	if r.sessions[fresh.flow] != fresh {
		t.Fatal("sweep expired a session idle under the window")
	}
}

// TestUDPTableEvictsIdlestIdleSession pins the cap: a new flow into a
// full table evicts the least recently used session that no worker is
// using, counted in UDPEvicted, and is admitted; when every session is
// mid-transaction the datagram is dropped, counted in UDPDropped, and
// nothing is evicted.
//
// It repeats under the race detector with the NAT table's other tests:
// the table is one map behind one mutex that concurrent pool workers
// take.
//
//race:repeat 20
func TestUDPTableEvictsIdlestIdleSession(t *testing.T) {
	setForTest(t, &maxUDPSessions, 3)
	r := newTableRelay()
	r.idle = 1 << 62
	busy := hold(t, r, udpFlow(0, 9999), 0) // the oldest, but held
	newer := use(t, r, udpFlow(1, 9999), 10)
	idlest := use(t, r, udpFlow(2, 9999), 5)

	s, first, expired := r.acquire(udpFlow(3, 9999), 20)
	if s == nil || !first {
		t.Fatalf("newcomer into a full table: session %v, first %v", s, first)
	}
	if len(expired) != 1 || expired[0] != idlest {
		t.Fatalf("evicted %d sessions, want exactly the idlest idle one", len(expired))
	}
	if expired[0].sock.Closed() {
		t.Error("evicted session closed under the lock; the caller closes it")
	}
	for _, kept := range []*udpSession{busy, newer, s} {
		if r.sessions[kept.flow] != kept {
			t.Errorf("session %v left the table", kept.flow)
		}
	}
	if got := r.e.ctr.udpEvicted.Load(); got != 1 {
		t.Errorf("UDPEvicted = %d, want 1", got)
	}
	if got := r.e.ActiveUDPSessions(); got != 3 {
		t.Errorf("ActiveUDPSessions = %d, want the cap, 3", got)
	}

	// Every session in use: busy and the newcomer are still held.
	hold(t, r, newer.flow, 30)
	if s, _, expired := r.acquire(udpFlow(4, 9999), 40); s != nil || len(expired) != 0 {
		t.Fatalf("full table of held sessions admitted a newcomer (%v) or evicted %d", s, len(expired))
	}
	if got := r.e.ctr.udpDropped.Load(); got != 1 {
		t.Errorf("UDPDropped = %d, want 1", got)
	}
	if got := r.e.ctr.udpEvicted.Load(); got != 1 {
		t.Errorf("UDPEvicted = %d after the drop, want still 1", got)
	}
	for _, kept := range []*udpSession{busy, newer, s} {
		if r.sessions[kept.flow] != kept || kept.sock.Closed() {
			t.Errorf("held session %v evicted or closed", kept.flow)
		}
	}
}

// TestUDPTableDNSSessionLeavesAtLastRelease pins the DNS lifetime: a
// DNS session held by two workers stays in the table, its socket open,
// until the second release, which removes it and closes its socket. A
// non-DNS session outlives its last release.
//
// It repeats under the race detector with the NAT table's other tests:
// the table is one map behind one mutex that concurrent pool workers
// take.
//
//race:repeat 20
func TestUDPTableDNSSessionLeavesAtLastRelease(t *testing.T) {
	r := newTableRelay()
	dns := udpFlow(0, 53)
	s1, first1, _ := r.acquire(dns, 1)
	s2, first2, _ := r.acquire(dns, 2)
	if s1 == nil || s1 != s2 || !first1 || first2 {
		t.Fatalf("two workers on one DNS flow: same session %v, first %v then %v", s1 == s2, first1, first2)
	}
	r.release(s1, 3)
	if r.sessions[dns] != s1 || s1.sock.Closed() {
		t.Fatal("DNS session removed or closed while a second worker still holds it")
	}
	r.release(s2, 4)
	if _, present := r.sessions[dns]; present || !s1.sock.Closed() {
		t.Fatalf("DNS session after its last release: in the table %v, closed %v", present, s1.sock.Closed())
	}
	if s3 := use(t, r, dns, 5); s3 == s1 {
		t.Fatal("the next query reused the finished DNS session")
	}

	other := use(t, r, udpFlow(1, 9999), 6)
	if r.sessions[other.flow] != other || other.sock.Closed() {
		t.Fatal("non-DNS session removed at its last release")
	}
}

// TestUDPTableRefusesAfterStop pins stop: it empties the table and
// closes every socket, a held session's release afterwards leaves the
// table empty, and acquire refuses without counting a drop.
//
// It repeats under the race detector with the NAT table's other tests:
// the table is one map behind one mutex that concurrent pool workers
// take.
//
//race:repeat 20
func TestUDPTableRefusesAfterStop(t *testing.T) {
	r := newTableRelay()
	held := hold(t, r, udpFlow(0, 53), 1)
	idle := use(t, r, udpFlow(1, 9999), 2)
	r.stop()
	if !held.sock.Closed() || !idle.sock.Closed() {
		t.Fatal("stop left a session socket open")
	}
	r.release(held, 3)
	if s, _, expired := r.acquire(udpFlow(2, 9999), 4); s != nil || len(expired) != 0 {
		t.Fatal("acquire after stop admitted a session")
	}
	if got := r.e.ActiveUDPSessions(); got != 0 {
		t.Errorf("ActiveUDPSessions = %d after stop, want 0", got)
	}
	if got := r.e.ctr.udpDropped.Load(); got != 0 {
		t.Errorf("a refusal after stop counted %d drops", got)
	}
}
