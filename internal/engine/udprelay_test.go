package engine_test

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/phonestack"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
)

// Tests for the pooled UDP relay subsystem: DNS failure accounting,
// per-app UDP byte attribution, NAT-style session reuse and idle
// expiry, and the bounded-goroutine property under datagram flood.

// TestDNSTimeoutCounted verifies the dnsTimeouts counter: a dead
// resolver produces no record but the failed transaction is visible in
// Stats.
func TestDNSTimeoutCounted(t *testing.T) {
	cfg := engine.Default()
	cfg.DNSTimeout = 50 * time.Millisecond
	tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.ZeroParseCost())
	deadDNS := netip.MustParseAddrPort("9.9.9.9:53")
	if _, err := tb.phone.Resolve(uidApp, deadDNS, "example.com", 200*time.Millisecond); err == nil {
		t.Fatal("resolve against dead server succeeded")
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Stats().DNSTimeouts >= 1 }, "dnsTimeouts counter")
	if got := tb.eng.Stats().DNSMeasurements; got != 0 {
		t.Errorf("dead resolver produced %d measurements", got)
	}
	// A healthy resolve afterwards measures without counting a timeout.
	before := tb.eng.Stats().DNSTimeouts
	if _, err := tb.phone.Resolve(uidApp, tb.dns, "example.com", 5*time.Second); err != nil {
		t.Fatalf("healthy resolve: %v", err)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Stats().DNSMeasurements >= 1 }, "DNS measurement")
	if got := tb.eng.Stats().DNSTimeouts; got != before {
		t.Errorf("healthy resolve bumped DNSTimeouts to %d", got)
	}
}

// TestUDPTrafficAttribution verifies relayed non-DNS UDP bytes land in
// the traffic stats attributed to the owning app (via the udp/udp6
// proc tables), and in the engine counters.
func TestUDPTrafficAttribution(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	echoPort := netip.MustParseAddrPort("203.0.113.77:9999")
	tb.net.HandleUDP(echoPort, 0, func(req []byte, from netip.AddrPort) []byte {
		return append([]byte("pong:"), req...)
	})
	u, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendTo(echoPort, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Recv(5 * time.Second); err != nil {
		t.Fatalf("recv: %v", err)
	}
	waitFor(t, 3*time.Second, func() bool {
		for _, a := range tb.eng.AppTraffic() {
			if a.App == appName && a.UDPBytesUp >= 4 && a.UDPBytesDown >= 9 {
				return true
			}
		}
		return false
	}, "per-app UDP byte attribution")
	st := tb.eng.Stats()
	if up, down := counter(t, tb.eng, "udp_bytes_up"), counter(t, tb.eng, "udp_bytes_down"); up < 4 || down < 9 {
		t.Errorf("UDP byte counters: up %d down %d", up, down)
	}
	if st.UDPRelayed < 1 {
		t.Errorf("UDPRelayed = %d", st.UDPRelayed)
	}
}

// TestUDPSessionReuseAndExpiry exercises the NAT-style session
// lifecycle: one flow maps to one session no matter how many datagrams
// it sends, and an idle session is expired by the sweeper.
func TestUDPSessionReuseAndExpiry(t *testing.T) {
	const idle = 60 * time.Millisecond
	engine.SetUDPSessionIdle(t, idle)
	tb := newTestbed(t, engine.Default())
	echoPort := netip.MustParseAddrPort("203.0.113.77:9999")
	tb.net.HandleUDP(echoPort, 0, func(req []byte, from netip.AddrPort) []byte { return req })

	u, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 0; i < 5; i++ {
		if err := u.SendTo(echoPort, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := u.Recv(5 * time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if got := tb.eng.ActiveUDPSessions(); got != 1 {
		t.Fatalf("5 datagrams of one flow created %d sessions, want 1", got)
	}

	// Let the session go idle past the deadline, then poke the relay
	// from a different flow so a pool worker runs a sweep.
	time.Sleep(2 * idle)
	u2, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if err := u2.SendTo(echoPort, []byte("poke")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.ActiveUDPSessions() == 1 }, "idle session expiry")

	// The original flow still relays — a fresh session replaces the
	// expired one transparently.
	if err := u.SendTo(echoPort, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Recv(5 * time.Second); err != nil {
		t.Fatalf("recv after expiry: %v", err)
	}
}

// TestUDPRelaySameFlowDropAccountingExact is the -race stress for the
// pooled relay's accounting contract: a flood of datagrams on ONE flow
// (so every packet reuses the same NAT session, from concurrent sender
// goroutines, through concurrent pool workers sharing that session's
// socket) must satisfy, exactly,
//
//	UDPRelayed + UDPDropped == datagrams sent
//
// — no drop lost, none double-counted, no response counted twice. The
// drops are made deterministic instead of load-dependent: the echo
// service blocks on a gate, so the pool wedges, the bounded job queue
// fills, and every further datagram must take the drop path; releasing
// the gate drains the queue and every accepted datagram must then be
// counted as relayed.
//
// It repeats under the race detector with the NAT table's other tests:
// one flow's session is shared by concurrent pool workers.
//
//race:repeat 20
func TestUDPRelaySameFlowDropAccountingExact(t *testing.T) {
	const (
		senders   = 4
		perSender = 400
		total     = senders * perSender
	)

	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	net.SetLoopback(true)
	defer net.Close()
	gate := make(chan struct{})
	echoPort := netip.MustParseAddrPort("203.0.113.90:7070")
	net.HandleUDP(echoPort, 0, func(req []byte, from netip.AddrPort) []byte {
		<-gate // wedge the pool worker until the flood has fully landed
		return req
	})

	dev := tun.New(clk, 8192) // deeper than the flood: no TUN-side drops
	defer dev.Close()
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	pm.Install(uidApp, appName)
	phone := phonestack.New(clk, dev, phoneVPNAddr, table, 2)
	defer phone.Close()
	prov := sockets.NewProvider(net, clk, phoneWANAddr, sockets.CostModel{}, 3)
	reader := procnet.NewReader(table, clk, procnet.ZeroParseCost(), 4)

	cfg := engine.Default()
	cfg.Workers = 4
	engine.SetUDPPoolSize(t, 2)
	eng := engine.New(cfg, engine.Deps{
		Clock: clk, Device: dev, Sockets: prov, ProcNet: reader, Packages: pm,
	})
	eng.Start()
	defer eng.Stop()

	u, err := phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := u.SendTo(echoPort, []byte("same-flow")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every datagram must reach the relay (accepted into the queue or
	// counted as dropped) before the gate opens; accounting may never
	// run ahead of the traffic.
	waitFor(t, 10*time.Second, func() bool {
		st := eng.Stats()
		if st.UDPRelayed+st.UDPDropped > total {
			t.Fatalf("accounting overshot mid-flood: relayed %d + dropped %d > sent %d",
				st.UDPRelayed, st.UDPDropped, total)
		}
		return st.PacketsFromTun >= total
	}, "flood to reach the relay")
	if st := eng.Stats(); st.UDPDropped == 0 {
		t.Fatalf("wedged pool produced no drops (relayed %d): the drop path was not exercised", st.UDPRelayed)
	}

	close(gate)
	waitFor(t, 10*time.Second, func() bool {
		st := eng.Stats()
		if st.UDPRelayed+st.UDPDropped > total {
			t.Fatalf("accounting overshot: relayed %d + dropped %d > sent %d",
				st.UDPRelayed, st.UDPDropped, total)
		}
		return st.UDPRelayed+st.UDPDropped == total
	}, "exact relayed+dropped accounting")
	// Stop closes the NAT sessions, so count them first. Stop then
	// waits for the pool's workers: no job is left to count, and a
	// double count would show in the re-check.
	if got := eng.ActiveUDPSessions(); got != 1 {
		t.Errorf("%d NAT sessions for one flow, want 1", got)
	}
	eng.Stop()
	st := eng.Stats()
	if st.UDPRelayed+st.UDPDropped != total {
		t.Errorf("accounting drifted by Stop: relayed %d + dropped %d != sent %d",
			st.UDPRelayed, st.UDPDropped, total)
	}
}

// TestUDPFloodBoundedGoroutines is the acceptance check for the pooled
// relay: a datagram flood through the multi-worker engine must not
// spawn goroutines per datagram — the count stays within the pool size
// plus a small constant. (The pre-pool engine spawned one goroutine
// per datagram: a 400-datagram flood meant ~400 goroutines.)
func TestUDPFloodBoundedGoroutines(t *testing.T) {
	const (
		conns        = 4
		perConn      = 100
		totalFlood   = conns * perConn
		boundedSlack = 24 // engine threads churn (connect threads, netsim)
	)

	// Loopback network: UDP services answer inline, so the only
	// goroutines in play are the engine's own.
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	net.SetLoopback(true)
	defer net.Close()
	echoPort := netip.MustParseAddrPort("203.0.113.88:7777")
	net.HandleUDP(echoPort, 0, func(req []byte, from netip.AddrPort) []byte { return req })

	dev := tun.New(clk, 4096)
	defer dev.Close()
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	pm.Install(uidApp, appName)
	phone := phonestack.New(clk, dev, phoneVPNAddr, table, 2)
	defer phone.Close()
	prov := sockets.NewProvider(net, clk, phoneWANAddr, sockets.CostModel{}, 3)
	reader := procnet.NewReader(table, clk, procnet.ZeroParseCost(), 4)

	cfg := engine.Default()
	cfg.Workers = 4
	eng := engine.New(cfg, engine.Deps{
		Clock: clk, Device: dev, Sockets: prov, ProcNet: reader, Packages: pm,
	})
	eng.Start()
	defer eng.Stop()

	baseline := runtime.NumGoroutine()

	socks := make([]*phonestack.UDPConn, conns)
	for i := range socks {
		u, err := phone.OpenUDP(uidApp)
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		socks[i] = u
	}

	peak := baseline
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < perConn; i++ {
			for _, u := range socks {
				if err := u.SendTo(echoPort, []byte(fmt.Sprintf("flood-%d", i))); err != nil {
					return
				}
			}
		}
	}()
	hardStop := time.Now().Add(5 * time.Second)
	var drainUntil time.Time
	for {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		select {
		case <-done:
			// Flood injected; keep sampling while the pool drains.
			drainUntil = time.Now().Add(150 * time.Millisecond)
			done = nil
		default:
		}
		now := time.Now()
		if (done == nil && now.After(drainUntil)) || now.After(hardStop) {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}

	if peak-baseline > boundedSlack {
		t.Errorf("goroutine peak %d (baseline %d, +%d) exceeds pool+constant bound %d — relay is spawning per datagram?",
			peak, baseline, peak-baseline, boundedSlack)
	}
	if peak-baseline >= totalFlood/2 {
		t.Errorf("goroutine growth %d is flood-proportional (%d datagrams)", peak-baseline, totalFlood)
	}

	// The relay stayed live: responses flowed back (drops are allowed
	// under overload, silence is not).
	waitFor(t, 5*time.Second, func() bool {
		st := eng.Stats()
		return st.UDPRelayed+st.UDPDropped >= totalFlood/2
	}, "flood relayed or accounted")
}

// A 100%-timeout DNS regime (blackholed resolver) must not wedge the
// bounded relay pool: each blocking DNS receive parks a worker for the
// full DNSTimeout, so without the inflight cap a burst of queries
// parks all of them and relayed UDP stalls for seconds. With the cap,
// echo traffic keeps flowing while the blackhole queries wait out
// their timeouts, and every datagram — measured, timed out, shed —
// lands in exactly one counter.
func TestDNSBlackholeDoesNotStarvePool(t *testing.T) {
	cfg := engine.Default()
	cfg.DNSTimeout = 600 * time.Millisecond
	cfg.UDPTimeout = 200 * time.Millisecond
	tb := newTestbed(t, cfg)
	// Blackhole the resolver path: every datagram to it vanishes.
	tb.net.SetLink(tb.dns.Addr(), netsim.LinkParams{Delay: time.Millisecond, Loss: 1.0})
	echoPort := netip.MustParseAddrPort("203.0.113.77:9999")
	tb.net.HandleUDP(echoPort, 0, netsim.EchoUDPHandler())

	const dnsQueries = 12 // 3x the default inflight cap of pool/2 = 4
	var wg sync.WaitGroup
	for i := 0; i < dnsQueries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = tb.phone.Resolve(uidApp, tb.dns, "example.com", 900*time.Millisecond)
		}()
	}

	// While the blackhole queries are pending, relayed UDP must flow.
	u, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const echoes = 10
	start := time.Now()
	for i := 0; i < echoes; i++ {
		if err := u.SendTo(echoPort, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := u.Recv(2 * time.Second); err != nil {
			t.Fatalf("echo %d under DNS blackhole: %v (pool starved?)", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > cfg.DNSTimeout {
		t.Errorf("%d echo round trips took %v with blackhole queries pending; want well under the %v DNS timeout", echoes, elapsed, cfg.DNSTimeout)
	}
	wg.Wait()

	sent := tb.phone.UDPDatagramsSent()
	waitFor(t, 5*time.Second, func() bool {
		st := tb.eng.Stats()
		return int64(st.DNSMeasurements+st.DNSTimeouts+st.UDPRelayed+st.UDPNoResponse+st.UDPDropped) == sent
	}, "exact datagram accounting under DNS blackhole")
	st := tb.eng.Stats()
	if st.DNSTimeouts == 0 {
		t.Error("blackholed resolver produced no DNSTimeouts")
	}
	if st.UDPDropped == 0 {
		t.Errorf("no shed DNS queries counted: %d queries against the default pool's inflight cap should shed", dnsQueries)
	}
	if st.DNSMeasurements != 0 {
		t.Errorf("blackholed resolver produced %d DNS measurements", st.DNSMeasurements)
	}
	if st.UDPRelayed < echoes {
		t.Errorf("UDPRelayed = %d, want >= %d echoes relayed during the blackhole", st.UDPRelayed, echoes)
	}
}

// A live resolver never trips the DNS cap: a burst of lookups twice the
// pool's size, as a page's concurrent connects make, is answered in
// full. Only a worker that waits past a fraction of DNSTimeout counts
// toward the cap.
func TestDNSBurstAtLiveResolverNotShed(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	tb.net.SetLink(tb.dns.Addr(), netsim.LinkParams{Delay: 10 * time.Millisecond})
	const lookups = 2 * 8 // 2 × the default udpPoolSize
	var wg sync.WaitGroup
	errs := make(chan error, lookups)
	for i := 0; i < lookups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tb.phone.Resolve(uidApp, tb.dns, "example.com", 5*time.Second); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("lookup at a live resolver: %v", err)
	}
	st := tb.eng.Stats()
	if st.UDPDropped != 0 || st.DNSTimeouts != 0 {
		t.Errorf("%d lookups at a live 20 ms resolver: %d shed, %d timed out, want 0 and 0", lookups, st.UDPDropped, st.DNSTimeouts)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Stats().DNSMeasurements == lookups }, "a DNS measurement per lookup")
}

// A non-DNS request whose response misses the receive window is
// counted (UDPNoResponse — never silent), and when the response
// arrives late it is forwarded to the app by the next datagram's stale
// drain and counted as UDPLateRelayed, not folded into UDPRelayed
// where it would double-book the datagram.
func TestUDPNoResponseAndLateRelayCounted(t *testing.T) {
	cfg := engine.Default()
	cfg.UDPTimeout = 100 * time.Millisecond
	tb := newTestbed(t, cfg)
	slowPort := netip.MustParseAddrPort("203.0.113.88:7777")
	// The service thinks for 3x the relay's receive window, so every
	// response is late.
	tb.net.HandleUDP(slowPort, 300*time.Millisecond, netsim.EchoUDPHandler())

	u, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendTo(slowPort, []byte("one")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Stats().UDPNoResponse >= 1 }, "UDPNoResponse counted")
	// Let the late response land on the session socket, then poke the
	// flow with a second datagram whose stale drain forwards it.
	time.Sleep(350 * time.Millisecond)
	if err := u.SendTo(slowPort, []byte("two")); err != nil {
		t.Fatal(err)
	}
	payload, _, err := u.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("late response never reached the app: %v", err)
	}
	if string(payload) != "one" {
		t.Errorf("late-relayed payload = %q, want the first request's echo", payload)
	}
	waitFor(t, 3*time.Second, func() bool {
		return tb.eng.Stats().UDPNoResponse >= 2 && counter(t, tb.eng, "udp_late_relayed") >= 1
	}, "second window timeout + late relay counted")
	late := counter(t, tb.eng, "udp_late_relayed")
	st := tb.eng.Stats()
	if st.UDPRelayed != 0 {
		t.Errorf("UDPRelayed = %d; late responses must count as UDPLateRelayed, not UDPRelayed", st.UDPRelayed)
	}
	if late > st.UDPNoResponse {
		t.Errorf("UDPLateRelayed %d > UDPNoResponse %d violates the accounting identity", late, st.UDPNoResponse)
	}
	sent := tb.phone.UDPDatagramsSent()
	if got := int64(st.DNSMeasurements + st.DNSTimeouts + st.UDPRelayed + st.UDPNoResponse + st.UDPDropped); got != sent {
		t.Errorf("accounting: measured+timeouts+relayed+noresponse+dropped = %d, phone sent %d", got, sent)
	}
}

// Each DNS query has its own NAT session, closed once the answer is
// relayed, so a phone that resolves more names within udpSessionIdle
// than the table holds is never shed. While sessions outlived their
// query, lookup maxUDPSessions+1 found the table full of answered
// queries and was dropped.
//
// The UDP NAT table is one map behind one mutex, taken by concurrent
// pool workers to start and to end each transaction, so the test
// repeats under the race detector.
//
//race:repeat 20
func TestDNSLookupsBeyondNATCapNotShed(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	tb.net.SetLoopback(true)
	lookups := 2 * engine.MaxUDPSessions()
	for i := 0; i < lookups; i++ {
		if _, err := tb.phone.Resolve(uidApp, tb.dns, "example.com", time.Second); err != nil {
			st := tb.eng.Stats()
			t.Fatalf("lookup %d of %d: %v (%d shed, %d live NAT sessions)", i+1, lookups, err, st.UDPDropped, tb.eng.ActiveUDPSessions())
		}
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Stats().DNSMeasurements == lookups }, "a DNS measurement per lookup")
	st := tb.eng.Stats()
	if evicted := counter(t, tb.eng, "udp_evicted"); st.UDPDropped != 0 || st.DNSTimeouts != 0 || evicted != 0 {
		t.Errorf("%d sequential lookups: %d shed, %d timed out, %d evicted, want 0, 0 and 0", lookups, st.UDPDropped, st.DNSTimeouts, evicted)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.ActiveUDPSessions() == 0 }, "every answered query's session closed")
}

// A flood of distinct non-DNS flows, twice what the NAT table holds,
// never takes the table past its cap: each newcomer evicts the idlest
// session instead of being shed, exactly one eviction per flow past the
// cap is counted, and every datagram still lands in exactly one counter.
//
// The UDP NAT table is one map behind one mutex, taken by concurrent
// pool workers to start and to end each transaction, so the test
// repeats under the race detector.
//
//race:repeat 20
func TestUDPFloodNeverExceedsNATCap(t *testing.T) {
	const maxSessions = 256 // the default's scan per eviction is slow under -race
	engine.SetMaxUDPSessions(t, maxSessions)
	cfg := engine.Default()
	cfg.UDPTimeout = time.Millisecond // nothing answers; keep the pool moving
	tb := newTestbed(t, cfg)
	tb.net.SetLoopback(true)
	u, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	const flows = 2 * maxSessions
	peak := 0
	sample := func() {
		if n := tb.eng.ActiveUDPSessions(); n > peak {
			peak = n
		}
	}
	base := netip.MustParseAddr("203.0.113.99")
	for i := 0; i < flows; i++ {
		// Distinct destination ports make distinct flows; no service
		// listens there, so each datagram waits out UDPTimeout.
		if err := u.SendTo(netip.AddrPortFrom(base, uint16(10000+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			// Let the engine catch up so the TUN queue never overflows.
			waitFor(t, 5*time.Second, func() bool {
				sample()
				return int64(tb.eng.Stats().PacketsFromTun) > int64(i)
			}, "engine to read the flood")
		}
	}
	sent := tb.phone.UDPDatagramsSent()
	waitFor(t, 10*time.Second, func() bool {
		sample()
		st := tb.eng.Stats()
		return int64(st.UDPNoResponse+st.UDPDropped) == sent
	}, "every datagram accounted")
	sample()
	st := tb.eng.Stats()
	evicted, late := counter(t, tb.eng, "udp_evicted"), counter(t, tb.eng, "udp_late_relayed")
	if peak > maxSessions {
		t.Errorf("NAT table peaked at %d sessions, cap %d", peak, maxSessions)
	}
	// One eviction per flow past the cap: a queued datagram never loses
	// its session and evicts another to replace it.
	if evicted != flows-maxSessions {
		t.Errorf("%d distinct flows into a %d-session table evicted %d, want %d",
			flows, maxSessions, evicted, flows-maxSessions)
	}
	if st.UDPDropped != 0 {
		t.Errorf("%d datagrams dropped, want 0: the queue holds the flood and every newcomer can evict",
			st.UDPDropped)
	}
	if st.UDPRelayed+late != 0 {
		t.Errorf("nothing answers, yet %d relayed and %d late-relayed", st.UDPRelayed, late)
	}
	t.Logf("peak %d sessions, %d evicted, %d no response, %d dropped", peak, evicted, st.UDPNoResponse, st.UDPDropped)
}

// Stopping an engine whose UDP queue still holds datagrams leaves no
// NAT session behind and waits for no receive window: the queued jobs
// end at once instead of creating sessions after the table was drained.
//
// The UDP NAT table is one map behind one mutex, taken by concurrent
// pool workers to start and to end each transaction, so the test
// repeats under the race detector.
//
//race:repeat 20
func TestStopWithQueuedUDPJobsLeavesNoSessions(t *testing.T) {
	engine.SetUDPPoolSize(t, 1)
	cfg := engine.Default()
	cfg.UDPTimeout = 2 * time.Second // nothing answers: the one worker blocks
	tb := newTestbed(t, cfg)
	tb.net.SetLoopback(true)
	u, err := tb.phone.OpenUDP(uidApp)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	const flows = 16
	base := netip.MustParseAddr("203.0.113.99")
	for i := 0; i < flows; i++ {
		if err := u.SendTo(netip.AddrPortFrom(base, uint16(20000+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return int64(tb.eng.Stats().PacketsFromTun) >= flows
	}, "the engine to queue every datagram")

	start := time.Now()
	tb.eng.Stop()
	if elapsed := time.Since(start); elapsed > cfg.UDPTimeout/10 {
		t.Errorf("Stop took %v with UDP jobs queued, want well under the %v receive window", elapsed, cfg.UDPTimeout)
	}
	if n := tb.eng.ActiveUDPSessions(); n != 0 {
		t.Errorf("%d NAT sessions left after Stop, want 0", n)
	}
}
