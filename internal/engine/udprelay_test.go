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
	tb := newAblationBed(t, cfg, sockets.ZeroCosts(), procnet.ZeroParseCost())
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
	if st.UDPBytesUp < 4 || st.UDPBytesDown < 9 {
		t.Errorf("UDP byte counters: up %d down %d", st.UDPBytesUp, st.UDPBytesDown)
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
	// from a different flow so the enqueue path schedules a sweep.
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
	prov := sockets.NewProvider(net, clk, phoneWANAddr, sockets.ZeroCosts(), 3)
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
	// Settle and re-check: a double count would keep drifting.
	time.Sleep(100 * time.Millisecond)
	st := eng.Stats()
	if st.UDPRelayed+st.UDPDropped != total {
		t.Errorf("accounting drifted after settling: relayed %d + dropped %d != sent %d",
			st.UDPRelayed, st.UDPDropped, total)
	}
	if got := eng.ActiveUDPSessions(); got != 1 {
		t.Errorf("%d NAT sessions for one flow, want 1", got)
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
	prov := sockets.NewProvider(net, clk, phoneWANAddr, sockets.ZeroCosts(), 3)
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
		st := tb.eng.Stats()
		return st.UDPNoResponse >= 2 && st.UDPLateRelayed >= 1
	}, "second window timeout + late relay counted")
	st := tb.eng.Stats()
	if st.UDPRelayed != 0 {
		t.Errorf("UDPRelayed = %d; late responses must count as UDPLateRelayed, not UDPRelayed", st.UDPRelayed)
	}
	if st.UDPLateRelayed > st.UDPNoResponse {
		t.Errorf("UDPLateRelayed %d > UDPNoResponse %d violates the accounting identity", st.UDPLateRelayed, st.UDPNoResponse)
	}
	sent := tb.phone.UDPDatagramsSent()
	if got := int64(st.DNSMeasurements + st.DNSTimeouts + st.UDPRelayed + st.UDPNoResponse + st.UDPDropped); got != sent {
		t.Errorf("accounting: measured+timeouts+relayed+noresponse+dropped = %d, phone sent %d", got, sent)
	}
}
