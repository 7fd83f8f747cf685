package engine_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/baselines/haystack"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/phonestack"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
)

func newAblationBed(t *testing.T, cfg engine.Config, socketCosts sockets.CostModel, parseCost procnet.CostModel) *testbed {
	t.Helper()
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: linkRTT / 2}, 1)
	net.HandleTCP(serverAddr, netsim.EchoHandler())
	zone := netsim.NewZone()
	zone.Add("example.com", serverAddr.Addr())
	net.HandleUDP(dnsAddr, 0, netsim.DNSHandler(zone))

	dev := tun.New(clk, 4096)
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	pm.Install(uidApp, appName)
	pm.Install(uidApp+1, "com.android.chrome")
	phone := phonestack.New(clk, dev, phoneVPNAddr, table, 2)
	prov := sockets.NewProvider(net, clk, phoneWANAddr, socketCosts, 3)
	reader := procnet.NewReader(table, clk, parseCost, 4)
	eng := engine.New(cfg, engine.Deps{
		Clock: clk, Device: dev, Sockets: prov, ProcNet: reader, Packages: pm,
	})
	eng.Start()
	tb := &testbed{
		clk: clk, net: net, dev: dev, table: table, pm: pm,
		phone: phone, eng: eng, server: serverAddr, dns: dnsAddr,
	}
	t.Cleanup(func() {
		tb.eng.Stop()
		tb.phone.Close()
		tb.dev.Close()
		tb.net.Close()
	})
	return tb
}

// TestCacheMappingMisattributes reproduces §3.3's accuracy hazard: with
// a Haystack-style remote-endpoint cache, the second app to reach a
// shared server endpoint inherits the first app's identity; MopEye's
// lazy mapping attributes both correctly.
func TestCacheMappingMisattributes(t *testing.T) {
	run := func(mode engine.MappingMode) []measure.Record {
		cfg := engine.Default()
		cfg.Mapping = mode
		tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.ZeroParseCost())
		// App 1 (the "Facebook app") connects first.
		c1, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c1.Close()
		waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "first record")
		// App 2 ("Facebook in Chrome") hits the same server endpoint.
		c2, err := tb.phone.Connect(uidApp+1, tb.server, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 2 }, "second record")
		return tb.eng.Store().Kind(measure.KindTCP)
	}

	lazy := run(engine.MapLazy)
	if lazy[0].App != appName || lazy[1].App != "com.android.chrome" {
		t.Errorf("lazy mapping misattributed: %q, %q", lazy[0].App, lazy[1].App)
	}

	cached := run(engine.MapCache)
	if cached[0].App != appName {
		t.Fatalf("cache first conn: %q", cached[0].App)
	}
	if cached[1].App != appName {
		t.Errorf("cache mode should misattribute the second app as %q, got %q (the §3.3 hazard)",
			appName, cached[1].App)
	}
}

// TestPollReadDelaysRelay reproduces the §3.1 problem: a sleep-polled
// tunnel read adds up to the poll interval to the app's connect
// latency; MopEye's blocking read does not.
func TestPollReadDelaysRelay(t *testing.T) {
	cfg := engine.Default()
	cfg.ReadMode = engine.ReadPoll
	cfg.PollInterval = 60 * time.Millisecond
	tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.ZeroParseCost())
	var worst time.Duration
	for i := 0; i < 3; i++ {
		conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if conn.ConnectElapsed > worst {
			worst = conn.ConnectElapsed
		}
		conn.Close()
		// Let the poller go back to sleep between attempts.
		time.Sleep(70 * time.Millisecond)
	}
	if worst < 20*time.Millisecond {
		t.Errorf("worst connect %v through a 60ms poller; retrieval delay missing", worst)
	}

	tbFast := newAblationBed(t, engine.Default(), sockets.CostModel{}, procnet.ZeroParseCost())
	conn, err := tbFast.phone.Connect(uidApp, tbFast.server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.ConnectElapsed > 20*time.Millisecond {
		t.Errorf("blocking-read connect took %v", conn.ConnectElapsed)
	}
}

// TestPerSocketProtectPenalisesSYN verifies the §3.5.2 contrast: with
// per-socket protect and Android costs, the app's connect is slower
// than with addDisallowedApplication, but data still flows.
func TestPerSocketProtectPenalisesSYN(t *testing.T) {
	costs := sockets.CostModel{
		Protect: func(r *rand.Rand) time.Duration { return 40 * time.Millisecond },
	}
	cfgSlow := engine.Default()
	cfgSlow.Protect = engine.ProtectPerSocket
	tb := newAblationBed(t, cfgSlow, costs, procnet.ZeroParseCost())
	connSlow, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer connSlow.Close()

	cfgFast := engine.Default() // ProtectDisallowed
	tb2 := newAblationBed(t, cfgFast, costs, procnet.ZeroParseCost())
	connFast, err := tb2.phone.Connect(uidApp, tb2.server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer connFast.Close()

	if connSlow.ConnectElapsed < connFast.ConnectElapsed+15*time.Millisecond {
		t.Errorf("per-socket protect connect %v not slower than disallowed-app %v",
			connSlow.ConnectElapsed, connFast.ConnectElapsed)
	}
	if tb2.eng.Stats().Established != 1 {
		t.Error("fast path did not establish")
	}
}

// TestMapOffLabelsUnknown verifies attribution can be disabled without
// breaking relaying.
func TestMapOffLabelsUnknown(t *testing.T) {
	cfg := engine.Default()
	cfg.Mapping = engine.MapOff
	tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.ZeroParseCost())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "record")
	r := tb.eng.Store().Snapshot()[0]
	if r.App != "unknown" {
		t.Errorf("app: %q", r.App)
	}
}

// TestHaystackConfigRelaysCorrectly runs the poll-based baseline end to
// end: slower, but correct.
func TestHaystackConfigRelaysCorrectly(t *testing.T) {
	tb := newAblationBed(t, haystack.Config(), sockets.CostModel{}, procnet.ZeroParseCost())
	conn, err := tb.phone.Connect(uidApp, tb.server, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("through the slow relay")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Errorf("echo: %q", buf)
	}
	// The poll cycles show up as connect latency well above path RTT.
	if conn.ConnectElapsed < linkRTT {
		t.Errorf("connect %v below path RTT", conn.ConnectElapsed)
	}
}

// TestGenericUDPRelay verifies non-DNS UDP is relayed (one
// request/response) without producing measurements (§2.2).
func TestGenericUDPRelay(t *testing.T) {
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
	payload, from, err := u.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(payload) != "pong:ping" || from != echoPort {
		t.Errorf("payload %q from %v", payload, from)
	}
	if got := len(tb.eng.Store().Kind(measure.KindDNS)); got != 0 {
		t.Errorf("generic UDP produced %d DNS records", got)
	}
}

// TestToyVpnConfigEndToEnd runs the fully unoptimised configuration:
// everything still works, just slower and with event-driven (noisier)
// measurement.
func TestToyVpnConfigEndToEnd(t *testing.T) {
	cfg := engine.ToyVpn()
	cfg.PollInterval = 20 * time.Millisecond // keep the test quick
	tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.ZeroParseCost())
	conn, err := tb.phone.Connect(uidApp, tb.server, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("toyvpn")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "record")
}

// TestAppTrafficAccounting verifies the beyond-RTT extension: per-app
// byte volumes are attributed like the RTT measurements are.
func TestAppTrafficAccounting(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 10_000)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	echo := make([]byte, len(payload))
	if err := conn.ReadFull(echo); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		for _, a := range tb.eng.AppTraffic() {
			if a.App == appName && a.BytesUp >= 10_000 && a.BytesDown >= 10_000 {
				return true
			}
		}
		return false
	}, "per-app traffic attribution")
	conn.Close()
	// After close the totals persist (folded into the book).
	waitFor(t, 3*time.Second, func() bool { return tb.eng.ActiveClients() == 0 }, "teardown")
	found := false
	for _, a := range tb.eng.AppTraffic() {
		if a.App == appName {
			found = true
			if a.Connections != 1 {
				t.Errorf("connections: %d", a.Connections)
			}
			if a.BytesUp < 10_000 || a.BytesDown < 10_000 {
				t.Errorf("volumes lost on close: %+v", a)
			}
		}
	}
	if !found {
		t.Fatal("app missing from traffic report after close")
	}
}

// TestDNSTimeoutHandledSilently verifies a dead resolver: the engine's
// temporary DNS thread times out without producing a record or wedging
// the relay, and the app's own resolver timeout fires (§2.4).
func TestDNSTimeoutHandledSilently(t *testing.T) {
	cfg := engine.Default()
	cfg.DNSTimeout = 50 * time.Millisecond
	tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.ZeroParseCost())
	deadDNS := netip.MustParseAddrPort("9.9.9.9:53")
	_, err := tb.phone.Resolve(uidApp, deadDNS, "example.com", 200*time.Millisecond)
	if err == nil {
		t.Fatal("resolve against dead server succeeded")
	}
	if got := len(tb.eng.Store().Kind(measure.KindDNS)); got != 0 {
		t.Errorf("dead resolver produced %d DNS records", got)
	}
	// The relay is still healthy afterwards.
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("relay wedged after DNS timeout: %v", err)
	}
	conn.Close()
}

// TestSYNFloodManyConnections stresses concurrent socket-connect
// threads and the client table.
func TestSYNFloodManyConnections(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	const n = 40
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
			if err == nil {
				conn.Close()
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return tb.eng.Store().Len() >= n }, "all records")
	st := tb.eng.Stats()
	if st.SYNs < n || st.Established < n {
		t.Errorf("stats: %+v", st)
	}
	waitFor(t, 5*time.Second, func() bool { return tb.eng.ActiveClients() == 0 }, "all clients torn down")
}
