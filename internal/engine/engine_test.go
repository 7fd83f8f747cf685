package engine_test

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/phonestack"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
)

// testbed wires a phone, a TUN device, a simulated network, and an
// engine together — the full Figure 2 topology.
type testbed struct {
	clk    clock.Clock
	net    *netsim.Network
	dev    *tun.Device
	table  *procnet.Table
	pm     *procnet.PackageManager
	phone  *phonestack.Phone
	eng    *engine.Engine
	server netip.AddrPort
	dns    netip.AddrPort
}

var (
	phoneVPNAddr = netip.MustParseAddr("10.0.0.2")
	phoneWANAddr = netip.MustParseAddr("100.64.0.5")
	serverAddr   = netip.MustParseAddrPort("93.184.216.34:80")
	dnsAddr      = netip.MustParseAddrPort("8.8.8.8:53")
)

const (
	uidApp  = 10001
	appName = "com.example.app"
	linkRTT = 4 * time.Millisecond // 2ms each way
)

func newTestbed(t *testing.T, cfg engine.Config) *testbed {
	t.Helper()
	return newTestbedOn(t, cfg, func(d *tun.Device) tun.Interface { return d })
}

// newTestbedOn is newTestbed with the engine's view of the TUN device
// wrapped, so a test can substitute a faulty backend.
func newTestbedOn(t *testing.T, cfg engine.Config, wrap func(*tun.Device) tun.Interface) *testbed {
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
	phone := phonestack.New(clk, dev, phoneVPNAddr, table, 2)

	prov := sockets.NewProvider(net, clk, phoneWANAddr, sockets.CostModel{}, 3)
	reader := procnet.NewReader(table, clk, procnet.ZeroParseCost(), 4)
	eng := engine.New(cfg, engine.Deps{
		Clock:    clk,
		Device:   wrap(dev),
		Sockets:  prov,
		ProcNet:  reader,
		Packages: pm,
		Store:    measure.NewStore(),
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

// counter reads an engine counter the way an operator does, from a
// gather of the metrics registry: counter(t, e, "udp_evicted") is
// mopeye_engine_udp_evicted_total.
func counter(t *testing.T, e *engine.Engine, name string) int {
	t.Helper()
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)
	v, ok := r.Gather().Get("mopeye_engine_" + name + "_total")
	if !ok {
		t.Fatalf("no metric mopeye_engine_%s_total", name)
	}
	return int(v)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

func TestRelayEstablishAndEcho(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect through relay: %v", err)
	}
	defer conn.Close()

	msg := []byte("hello through the vpn relay")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if err := conn.ReadFull(got); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo mismatch: got %q want %q", got, msg)
	}
}

func TestRelayProducesPerAppMeasurement(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()

	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "measurement record")
	recs := tb.eng.Store().Kind(measure.KindTCP)
	if len(recs) != 1 {
		t.Fatalf("got %d TCP records, want 1", len(recs))
	}
	r := recs[0]
	if r.App != appName {
		t.Errorf("record app = %q, want %q (lazy mapping should attribute correctly)", r.App, appName)
	}
	if r.Dst != tb.server {
		t.Errorf("record dst = %v, want %v", r.Dst, tb.server)
	}
	// Every engine record carries the simulated phone's network tags.
	if r.NetType != "WiFi" || r.ISP != "SimNet" || r.Country != "SG" {
		t.Errorf("record network = %q/%q/%q, want WiFi/SimNet/SG", r.NetType, r.ISP, r.Country)
	}
	// The measured RTT must track the configured path RTT: the blocking
	// connect is timestamped immediately around the call. The upper
	// bound is generous because a loaded test machine inflates real
	// sleeps; the tight sub-ms accuracy claim is asserted against wire
	// ground truth (same-run comparison, load-invariant) in the mopeye
	// package's TestGroundTruthMatchesMeasurement.
	if r.RTT < linkRTT || r.RTT > linkRTT+25*time.Millisecond {
		t.Errorf("measured RTT %v not within [%v, %v]", r.RTT, linkRTT, linkRTT+25*time.Millisecond)
	}
}

// gatedSource renders the emulated proc tables only once gate is
// closed, so a test decides when the mapper reads them.
type gatedSource struct {
	*procnet.Table
	gate chan struct{}
}

func (g gatedSource) AppendRender(dst []byte, p procnet.Proto) []byte {
	<-g.gate
	return g.Table.AppendRender(dst, p)
}

// Lazy mapping runs after the app's handshake (§3.3), so a short flow
// can end while its socket-connect thread still waits for a parse. The
// engine holds the server's FIN toward the app until the flow is
// attributed, which keeps the app's socket listed in /proc/net for the
// parse. Here the parse may read the table only after the app has
// closed and the server has hung up.
func TestFlowThatEndsBeforeItsParseIsAttributed(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond}, 1)
	hungUp := make(chan struct{})
	echo := netsim.EchoHandler()
	net.HandleTCP(serverAddr, func(c *netsim.Conn) { echo(c); close(hungUp) })
	dev := tun.New(clk, 4096)
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	pm.Install(uidApp, appName)
	phone := phonestack.New(clk, dev, phoneVPNAddr, table, 2)
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	eng := engine.New(engine.Default(), engine.Deps{
		Clock:    clk,
		Device:   dev,
		Sockets:  sockets.NewProvider(net, clk, phoneWANAddr, sockets.CostModel{}, 3),
		ProcNet:  procnet.NewReaderFrom(gatedSource{table, gate}, clk, procnet.ZeroParseCost(), 4),
		Packages: pm,
		Store:    measure.NewStore(),
	})
	eng.Start()
	defer func() {
		openGate() // Stop joins the socket-connect thread parked on it
		eng.Stop()
		phone.Close()
		dev.Close()
		net.Close()
	}()

	conn, err := phone.Connect(uidApp, serverAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	msg := []byte("a flow shorter than its mapping")
	got := make([]byte, len(msg))
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := conn.ReadFull(got); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	conn.Close()
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the app's close")
	}
	// Time for the server's FIN to cross the link and the relay; it must
	// wait for the attribution instead of reaching the app.
	time.Sleep(20 * time.Millisecond)
	if n := table.Len(); n != 1 {
		t.Fatalf("%d sockets listed before the flow was attributed, want the app's one", n)
	}

	openGate()
	waitFor(t, 3*time.Second, func() bool { return eng.Store().Len() >= 1 }, "measurement record")
	if r := eng.Store().Kind(measure.KindTCP)[0]; r.App != appName || r.UID != uidApp {
		t.Errorf("record attributed to %q (uid %d), want %q (uid %d)", r.App, r.UID, appName, uidApp)
	}
	waitFor(t, 3*time.Second, func() bool { return table.Len() == 0 }, "the held FIN to reach the app")
}

func TestAppObservedConnectTracksPathRTT(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	// The app completes its handshake only after the external connect
	// (§2.3), so its observed latency is path RTT plus relay overhead.
	if conn.ConnectElapsed < linkRTT {
		t.Errorf("app connect elapsed %v < path RTT %v", conn.ConnectElapsed, linkRTT)
	}
	if conn.ConnectElapsed > linkRTT+50*time.Millisecond {
		t.Errorf("app connect elapsed %v too large (relay overhead)", conn.ConnectElapsed)
	}
}

func TestConnectionRefusedRelaysRST(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	noServer := netip.MustParseAddrPort("93.184.216.34:81")
	_, err := tb.phone.Connect(uidApp, noServer, 5*time.Second)
	if err == nil {
		t.Fatal("connect to closed port succeeded, want refusal")
	}
	if err != phonestack.ErrRefused {
		t.Fatalf("got %v, want ErrRefused", err)
	}
	st := tb.eng.Stats()
	if st.ConnectFailures != 1 {
		t.Errorf("ConnectFailures = %d, want 1", st.ConnectFailures)
	}
}

// rstProbeTun is a TUN backend that reports every RST and every
// SYN-ACK the engine writes toward the app, at the moment of the write.
type rstProbeTun struct {
	*tun.Device
	onRST, onSynAck func()
}

func (d *rstProbeTun) Write(pkt []byte) error {
	if p, err := packet.Decode(pkt); err == nil && p.IsTCP() {
		switch {
		case p.TCP.Has(packet.FlagRST):
			d.onRST()
		case p.TCP.Has(packet.FlagSYN | packet.FlagACK):
			d.onSynAck()
		}
	}
	return d.Device.Write(pkt)
}

// TestConnectFailureCountedBeforeRST: the engine counts a failed
// external connect before the RST leaves for the app, and an
// established one before the SYN-ACK leaves, so an app whose connect
// returned always finds its outcome counted. DirectWrite writes the
// packet on the thread that completes or refuses, so the probe reads
// the counter exactly when the packet leaves, for the blocking and the
// event-driven connect alike.
//
// The app reads its outcome on its own goroutine, so the test repeats
// under the race detector.
//
//race:repeat 20
func TestConnectFailureCountedBeforeRST(t *testing.T) {
	for _, blocking := range []bool{true, false} {
		cfg := engine.Default()
		cfg.WriteScheme = engine.DirectWrite
		cfg.BlockingConnectMeasure = blocking
		probe := &rstProbeTun{}
		tb := newTestbedOn(t, cfg, func(d *tun.Device) tun.Interface {
			probe.Device = d
			return probe
		})
		var atRST, atSynAck []int
		probe.onRST = func() { atRST = append(atRST, tb.eng.Stats().ConnectFailures) }
		probe.onSynAck = func() { atSynAck = append(atSynAck, tb.eng.Stats().Established) }
		noServer := netip.MustParseAddrPort("93.184.216.34:81")
		for i := 1; i <= 3; i++ {
			if _, err := tb.phone.Connect(uidApp, noServer, 5*time.Second); err != phonestack.ErrRefused {
				t.Fatalf("blocking=%v attempt %d: got %v, want ErrRefused", blocking, i, err)
			}
			if len(atRST) != i || atRST[i-1] != i {
				t.Fatalf("blocking=%v attempt %d: ConnectFailures when each RST left = %v, want 1..%d", blocking, i, atRST, i)
			}
		}
		for i := 1; i <= 3; i++ {
			conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
			if err != nil {
				t.Fatalf("blocking=%v connect %d: %v", blocking, i, err)
			}
			if len(atSynAck) != i || atSynAck[i-1] != i {
				t.Fatalf("blocking=%v connect %d: Established when each SYN-ACK left = %v, want 1..%d", blocking, i, atSynAck, i)
			}
			conn.Close()
		}
	}
}

func TestDNSMeasurement(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	res, err := tb.phone.Resolve(uidApp, tb.dns, "example.com", 5*time.Second)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if res.Addr != tb.server.Addr() {
		t.Errorf("resolved %v, want %v", res.Addr, tb.server.Addr())
	}
	waitFor(t, 3*time.Second, func() bool {
		return len(tb.eng.Store().Kind(measure.KindDNS)) >= 1
	}, "DNS record")
	recs := tb.eng.Store().Kind(measure.KindDNS)
	r := recs[0]
	if r.Domain != "example.com" {
		t.Errorf("DNS record domain = %q, want example.com", r.Domain)
	}
	if r.RTT < linkRTT || r.RTT > linkRTT+25*time.Millisecond {
		t.Errorf("DNS RTT %v not near %v", r.RTT, linkRTT)
	}
}

func TestNXDomain(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	_, err := tb.phone.Resolve(uidApp, tb.dns, "nosuchname.example", 5*time.Second)
	if err != phonestack.ErrNXDomain {
		t.Fatalf("got %v, want ErrNXDomain", err)
	}
}

func TestAppRSTClosesExternal(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	conn.Abort()
	waitFor(t, 3*time.Second, func() bool { return tb.eng.ActiveClients() == 0 }, "client removal after RST")
}

func TestHalfCloseEchoDrains(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	msg := []byte("final words")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if err := conn.ReadFull(got); err != nil {
		t.Fatalf("read: %v", err)
	}
	conn.Close()
	waitFor(t, 3*time.Second, func() bool { return tb.eng.ActiveClients() == 0 }, "teardown after close")
}

func TestMultipleConcurrentConnections(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	const n = 8
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			msg := []byte("concurrent")
			if _, err := conn.Write(msg); err != nil {
				done <- err
				return
			}
			buf := make([]byte, len(msg))
			done <- conn.ReadFull(buf)
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= n }, "n records")
}

func TestLargeTransferSegmentsAtMSS(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() { _, _ = conn.Write(payload) }()
	got := make([]byte, len(payload))
	if err := conn.ReadFull(got); err != nil {
		t.Fatalf("read 200 KiB echo: %v", err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("corruption at byte %d: got %#x want %#x", i, got[i], payload[i])
		}
	}
}

func TestEngineStopReleasesBlockedRead(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	// No traffic at all: TunReader is parked in a blocking read. Stop
	// must return promptly thanks to the dummy-packet trick (§3.1).
	doneCh := make(chan struct{})
	go func() {
		tb.eng.Stop()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release the blocked tunnel read")
	}
}

func TestEventDrivenMeasurementHasDispatchBias(t *testing.T) {
	// With non-blocking connects measured at the selector (the pre-§2.4
	// design) and Android-like dispatch costs, the measured RTT is
	// biased upward relative to the path RTT.
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: linkRTT / 2}, 1)
	net.HandleTCP(serverAddr, netsim.EchoHandler())
	dev := tun.New(clk, 4096)
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	pm.Install(uidApp, appName)
	phone := phonestack.New(clk, dev, phoneVPNAddr, table, 2)
	prov := sockets.NewProvider(net, clk, phoneWANAddr, sockets.AndroidCosts(), 3)
	reader := procnet.NewReader(table, clk, procnet.ZeroParseCost(), 4)

	cfg := engine.Default()
	cfg.BlockingConnectMeasure = false
	eng := engine.New(cfg, engine.Deps{
		Clock: clk, Device: dev, Sockets: prov, ProcNet: reader, Packages: pm,
	})
	eng.Start()
	defer func() {
		eng.Stop()
		phone.Close()
		dev.Close()
		net.Close()
	}()

	conn, err := phone.Connect(uidApp, serverAddr, 10*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	waitFor(t, 5*time.Second, func() bool { return eng.Store().Len() >= 1 }, "record")
	r := eng.Store().Snapshot()[0]
	if r.RTT < linkRTT {
		t.Errorf("event-driven RTT %v below path RTT %v", r.RTT, linkRTT)
	}
}

// TestStopWithoutTrafficCountsNoDecodeError pins the fate of Stop's
// wake-up dummy packet (§3.1): the reader discards it instead of
// relaying a malformed packet into the decode-error count.
func TestStopWithoutTrafficCountsNoDecodeError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = workers
			tb := newTestbed(t, cfg)
			tb.eng.Stop()
			if st := tb.eng.Stats(); st.DecodeErrors != 0 || st.PacketsFromTun != 0 {
				t.Errorf("after Start→Stop with no traffic: DecodeErrors=%d PacketsFromTun=%d, want 0 and 0",
					st.DecodeErrors, st.PacketsFromTun)
			}
		})
	}
}

// TestMalformedTunnelPacketCountedOnce: a packet too short to carry an
// IPv4 header is one decode error at every worker count — rejected by
// the worker's decode at Workers=1 and by the reader's flow-key peek
// above that, never by both — and the flow behind it relays as if it
// had not been there.
//
// The relay pipeline's interleavings differ run to run, so the test
// repeats under the race detector at every worker count it covers.
//
//race:repeat 10
func TestMalformedTunnelPacketCountedOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = workers
			tb := newTestbed(t, cfg)
			// Version 4, IHL 5 (20 bytes), cut off after 6.
			if err := tb.dev.InjectOutbound([]byte{0x45, 0, 0, 20, 0, 0}); err != nil {
				t.Fatal(err)
			}
			conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
			if err != nil {
				t.Fatalf("connect behind a malformed packet: %v", err)
			}
			defer conn.Close()
			msg := []byte("after the malformed packet")
			if _, err := conn.Write(msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			if err := conn.ReadFull(got); err != nil {
				t.Fatalf("read echo: %v", err)
			}
			if string(got) != string(msg) {
				t.Fatalf("echo mismatch: got %q want %q", got, msg)
			}
			waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "the flow's record")
			if st := tb.eng.Stats(); st.DecodeErrors != 1 {
				t.Errorf("DecodeErrors = %d, want 1", st.DecodeErrors)
			}
		})
	}
}

// shrunkTun is a TUN backend whose writes, once shrunk is set, refuse
// every packet over 576 bytes, the way a device whose MTU dropped
// mid-flow does.
type shrunkTun struct {
	*tun.Device
	shrunk atomic.Bool
}

func (d *shrunkTun) Write(pkt []byte) error {
	if d.shrunk.Load() && len(pkt) > 576 {
		return tun.ErrTooBig
	}
	return d.Device.Write(pkt)
}

// eioTun is a TUN backend whose reads fail the way a broken descriptor
// does.
type eioTun struct{ *tun.Device }

func (eioTun) Read() ([]byte, error) { return nil, syscall.EIO }

// TestTunReadErrorIsCounted: an unexpected device error ends the reader
// (and, lanes closed behind it, the workers), which must be visible
// from the outside — and Stop must still return.
func TestTunReadErrorIsCounted(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = workers
			tb := newTestbedOn(t, cfg, func(d *tun.Device) tun.Interface { return eioTun{d} })
			waitFor(t, 5*time.Second, func() bool { return counter(t, tb.eng, "tun_read_errors") == 1 }, "the read error to be counted")
			stopped := make(chan struct{})
			go func() {
				tb.eng.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop hung after the reader died")
			}
		})
	}
}

// TestTunWriteErrorIsCounted: a tunnel write the device refuses loses
// a packet toward the app, which must be visible from the outside. The
// flow opens at the default MTU, so both ends agree on a 1,460-byte
// MSS; the engine's view of the device then refuses packets over 576
// bytes, and the app sends 1,400 bytes in segments that fit them. The
// server echoes them in one write, so the engine reads them in one
// piece and emits one 1,440-byte segment, which the device refuses
// with ErrTooBig.
func TestTunWriteErrorIsCounted(t *testing.T) {
	const size = 1400
	var dev *shrunkTun
	tb := newTestbedOn(t, engine.Default(), func(d *tun.Device) tun.Interface {
		dev = &shrunkTun{Device: d}
		return dev
	})
	r := metrics.NewRegistry()
	tb.eng.RegisterMetrics(r)
	server := netip.MustParseAddrPort("93.184.216.35:80")
	tb.net.HandleTCP(server, func(c *netsim.Conn) {
		defer c.Close()
		buf := make([]byte, size)
		for n := 0; n < size; {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
		}
		c.Write(buf)
	})
	conn, err := tb.phone.Connect(uidApp, server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	dev.shrunk.Store(true)
	msg := make([]byte, size)
	for off := 0; off < size; off += 500 {
		if _, err := conn.Write(msg[off:min(off+500, size)]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return counter(t, tb.eng, "tun_write_errors") > 0 }, "the refused write to be counted")
	if v, ok := r.Gather().Get("mopeye_engine_tun_write_errors_total"); !ok || v == 0 {
		t.Errorf("tun_write_errors_total = %v ok=%v, want nonzero", v, ok)
	}
}
