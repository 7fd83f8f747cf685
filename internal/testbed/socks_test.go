package testbed

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/upstream"
)

// SOCKSAddr is where InstallSOCKS5 listens inside the emulated network.
var SOCKSAddr = netip.AddrPortFrom(netip.MustParseAddr("100.64.0.80"), 1080)

// InstallSOCKS5 runs the in-process SOCKS5 proxy inside the bed's
// network at SOCKSAddr and returns its address. The proxy's own link is
// zero-delay (loopback-adjacent middlebox), so a flow relayed through
// it pays exactly the destination link's cost — the property the
// byte-identical direct-vs-SOCKS e2e pins. cfg's fault-injection knobs
// (auth, refusal, hang) pass through; the backend dial is wired into
// the emulated network unless the caller overrides it.
func (b *Bed) InstallSOCKS5(cfg upstream.ServerConfig) netip.AddrPort {
	if cfg.Dial == nil {
		var backendPort atomic.Uint32
		backendPort.Store(41000)
		cfg.Dial = func(dst netip.AddrPort) (io.ReadWriteCloser, error) {
			local := netip.AddrPortFrom(SOCKSAddr.Addr(), uint16(backendPort.Add(1)))
			return b.Net.Dial(local, dst)
		}
	}
	b.Net.SetLink(SOCKSAddr.Addr(), netsim.LinkParams{})
	b.Net.HandleTCP(SOCKSAddr, func(c *netsim.Conn) { _ = upstream.ServeConn(c, cfg) })
	return SOCKSAddr
}

// UseSOCKS5 points the relay's upstream exit at a SOCKS5 proxy inside
// the emulated network. Call before traffic flows. Username/password
// may be empty for an anonymous proxy; timeout zero selects the
// dialer's default.
func (b *Bed) UseSOCKS5(proxy netip.AddrPort, username, password string, timeout time.Duration) {
	b.Prov.SetDialer(&upstream.SOCKS5{
		Proxy:    proxy,
		Username: username,
		Password: password,
		Timeout:  timeout,
		Forward:  upstream.Netsim{Net: b.Net},
		Clk:      b.Clk,
	})
}

// startPump advances a virtual clock continuously: 1 ms of simulated
// time per 100 µs of wall time, so virtual timeouts expire ~10x faster than wall ones. Returns
// a stop func that must run after bed.Close — teardown sleeps on the
// virtual clock too.
func startPump(vclk *clock.Virtual) (stop func()) {
	return startPumpEvery(vclk, 100*time.Microsecond)
}

// startPumpEvery advances 1 ms of simulated time per `wall` of wall
// time. A longer wall interval makes simulated time cleaner: goroutine
// handoffs that take zero simulated time also take real microseconds,
// and every pump tick that lands inside one shows up as a 1 ms
// quantization slip in whatever duration is being measured around it.
func startPumpEvery(vclk *clock.Virtual, wall time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				vclk.Advance(time.Millisecond)
				time.Sleep(wall)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// socksBedOptions is the fixture both halves of the byte-identical
// comparison share: two echo servers on literal addresses (no DNS leg)
// with delays that are exact multiples of the pump tick, on a virtual
// clock from a fixed epoch.
func socksBedOptions(vclk *clock.Virtual) Options {
	return Options{
		Link: netsim.LinkParams{Delay: 5 * time.Millisecond},
		Servers: []netsim.ServerSpec{
			EchoServer("alpha.example", "203.0.113.10:443", 20*time.Millisecond),
			EchoServer("beta.example", "203.0.113.20:80", 10*time.Millisecond),
		},
		Clock: vclk,
	}
}

// runSOCKSWorkload drives the fixed two-app workload through a fresh
// bed and returns the records plus their JSONL serialization. With
// viaProxy set, every relay connection exits through the in-process
// SOCKS5 server (with authentication) instead of dialing the emulated
// network directly; connectsThroughProxy reports how many CONNECTs the
// proxy actually served, so the test can prove the proxied run did not
// silently fall back to the direct path.
func runSOCKSWorkload(t *testing.T, viaProxy bool, steps int, pumpWall time.Duration) (recs []measure.Record, jsonl []byte, connectsThroughProxy int64) {
	t.Helper()
	vclk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	stopPump := startPumpEvery(vclk, pumpWall)
	defer stopPump()

	bed, err := New(socksBedOptions(vclk))
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	defer bed.Close()
	bed.InstallApp(10001, "app.alpha")
	bed.InstallApp(10002, "app.beta")

	var proxyConnects atomic.Int64
	if viaProxy {
		var backendPort atomic.Uint32
		backendPort.Store(52000)
		proxy := bed.InstallSOCKS5(upstream.ServerConfig{
			Username: "mopeye", Password: "s3cret",
			Dial: func(dst netip.AddrPort) (io.ReadWriteCloser, error) {
				proxyConnects.Add(1)
				local := netip.AddrPortFrom(SOCKSAddr.Addr(), uint16(backendPort.Add(1)))
				return bed.Net.Dial(local, dst)
			},
		})
		bed.UseSOCKS5(proxy, "mopeye", "s3cret", 5*time.Second)
	}

	// Fixed serial workload: the two apps alternate connects to their
	// servers. Waiting for the record after every connect pins the
	// store order, so the direct and proxied runs serialize records
	// identically.
	plan := []struct {
		uid int
		dst netip.AddrPort
	}{
		{10001, netip.MustParseAddrPort("203.0.113.10:443")},
		{10002, netip.MustParseAddrPort("203.0.113.20:80")},
	}
	// Steps run on a fixed simulated-time grid anchored at the clock's
	// epoch: the pump free-runs on wall time, so without the grid a run
	// whose setup or steps take more wall time (the proxied one — extra
	// handoffs through the proxy) would see more simulated time pass
	// between records and the timestamps would drift apart
	// systematically.
	epoch := time.Unix(1_700_000_000, 0).UnixNano()
	const stepGrid = 250 * time.Millisecond
	for i := 0; i < steps; i++ {
		s := plan[i%len(plan)]
		for vclk.Nanos() < epoch+int64(stepGrid)*int64(i+1) {
			time.Sleep(50 * time.Microsecond)
		}
		conn, err := bed.Phone.Connect(s.uid, s.dst, 30*time.Second)
		if err != nil {
			t.Fatalf("step %d: connect %v: %v", i, s.dst, err)
		}
		payload := []byte(fmt.Sprintf("payload-%d-via-%v", i, viaProxy))
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("step %d: write: %v", i, err)
		}
		echo := make([]byte, len(payload))
		if err := conn.ReadFull(echo); err != nil {
			t.Fatalf("step %d: read: %v", i, err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatalf("step %d: echo = %q, want %q", i, echo, payload)
		}
		conn.Close()
		deadline := time.Now().Add(30 * time.Second)
		for bed.Store.Len() <= i {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: record never appeared (store len %d)", i, bed.Store.Len())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	recs = bed.Store.Snapshot()
	var buf bytes.Buffer
	if err := measure.WriteJSONL(&buf, recs); err != nil {
		t.Fatalf("export: %v", err)
	}
	return recs, buf.Bytes(), proxyConnects.Load()
}

// TestSOCKS5RelayByteIdenticalRecords is the tentpole equivalence
// proof for the upstream seam: the same workload, measured once with
// the relay dialing the emulated network directly and once exiting
// through the in-process SOCKS5 proxy, must produce byte-identical
// measurement records. The proxy sits on a zero-delay link, so a
// relayed flow pays exactly the destination link's cost and the
// measured RTTs — ns-precision in the JSONL — agree.
//
// Attribution (app, uid, dst, kind, order) must match on every run;
// that is the semantic guarantee and any mismatch fails immediately.
// The RTT and timestamp fields are quantized to the virtual-clock pump
// tick, where goroutine scheduling can occasionally slip a run by one
// tick, so the byte-exact comparison gets a few attempts; a systematic
// difference (the proxy charging time, records reordered) would fail
// every attempt.
func TestSOCKS5RelayByteIdenticalRecords(t *testing.T) {
	// 1 ms of simulated time per 2 ms of wall time: handoff-heavy spans
	// (the SOCKS handshake) almost never straddle a pump tick, so the
	// proxied run's RTTs land on exactly the direct run's values.
	const attempts = 8
	const pumpWall = 2 * time.Millisecond
	var lastDirect, lastProxied []byte
	for attempt := 1; attempt <= attempts; attempt++ {
		direct, directJSONL, _ := runSOCKSWorkload(t, false, 4, pumpWall)
		proxied, proxiedJSONL, proxyConnects := runSOCKSWorkload(t, true, 4, pumpWall)

		if proxyConnects != int64(len(proxied)) {
			t.Fatalf("proxy served %d CONNECTs for %d records — proxied run bypassed the proxy",
				proxyConnects, len(proxied))
		}
		if len(direct) != len(proxied) {
			t.Fatalf("record counts differ: direct %d, proxied %d", len(direct), len(proxied))
		}
		for i := range direct {
			d, p := direct[i], proxied[i]
			if d.Kind != p.Kind || d.App != p.App || d.UID != p.UID || d.Dst != p.Dst || d.Domain != p.Domain {
				t.Fatalf("record %d attribution differs:\ndirect:  %+v\nproxied: %+v", i, d, p)
			}
		}

		if bytes.Equal(directJSONL, proxiedJSONL) {
			return
		}
		lastDirect, lastProxied = directJSONL, proxiedJSONL
	}
	t.Fatalf("JSONL never byte-identical over %d attempts\ndirect:\n%s\nproxied:\n%s",
		attempts, lastDirect, lastProxied)
}

// TestSOCKS5RelayRTTMatchesPath pins the timing property on its own
// (unconditionally — no retry): through the proxy, each measured RTT
// still reflects the destination link, within generous pump-tick
// slack. A proxy that serialized the CONNECT behind extra simulated
// delay would land far outside the window.
func TestSOCKS5RelayRTTMatchesPath(t *testing.T) {
	recs, _, _ := runSOCKSWorkload(t, true, 6, 100*time.Microsecond)
	want := map[netip.AddrPort]time.Duration{
		netip.MustParseAddrPort("203.0.113.10:443"): 20 * time.Millisecond,
		netip.MustParseAddrPort("203.0.113.20:80"):  10 * time.Millisecond,
	}
	for i, r := range recs {
		path := want[r.Dst]
		if path == 0 {
			t.Fatalf("record %d: unexpected dst %v", i, r.Dst)
		}
		if r.RTT < path || r.RTT > path+15*time.Millisecond {
			t.Errorf("record %d (%s -> %v): RTT %v, want within [%v, %v]",
				i, r.App, r.Dst, r.RTT, path, path+15*time.Millisecond)
		}
	}
}

// TestSOCKS5AuthRejectTearsDownApp: a proxy that rejects the relay's
// credentials is a terminal dial failure — the engine must count it,
// tear the relay state down, and refuse the app's connection (RST
// through the tunnel), not hang it. Fixing the credentials on the same
// bed then succeeds, proving the failure was the auth step.
//
// The refusal crosses the connect thread, the writer and the app, so
// the test repeats under the race detector: a refused connect is
// counted before its RST leaves.
//
//race:repeat 20
func TestSOCKS5AuthRejectTearsDownApp(t *testing.T) {
	vclk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	stopPump := startPump(vclk)
	defer stopPump()

	bed, err := New(socksBedOptions(vclk))
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	defer bed.Close()
	bed.InstallApp(10001, "app.alpha")
	proxy := bed.InstallSOCKS5(upstream.ServerConfig{Username: "mopeye", Password: "s3cret"})

	bed.UseSOCKS5(proxy, "mopeye", "wrong", 5*time.Second)
	dst := netip.MustParseAddrPort("203.0.113.10:443")
	if _, err := bed.Phone.Connect(10001, dst, 30*time.Second); err == nil {
		t.Fatal("connect through auth-rejecting proxy succeeded")
	}
	if n := bed.Eng.Stats().ConnectFailures; n != 1 {
		t.Fatalf("ConnectFailures = %d, want 1", n)
	}
	if recs := bed.Store.Kind(measure.KindTCP); len(recs) != 0 {
		t.Fatalf("failed connect produced records: %+v", recs)
	}

	bed.UseSOCKS5(proxy, "mopeye", "s3cret", 5*time.Second)
	conn, err := bed.Phone.Connect(10001, dst, 30*time.Second)
	if err != nil {
		t.Fatalf("connect with fixed credentials: %v", err)
	}
	conn.Close()
}

// TestSOCKS5HangTimesOutUnderVirtualClock: a proxy that accepts the
// greeting and then goes silent must not wedge the relay worker — the
// dialer's own timeout (virtual time, so the test takes milliseconds
// of wall time) fires, the engine records a connect failure, and the
// app's connect is refused.
func TestSOCKS5HangTimesOutUnderVirtualClock(t *testing.T) {
	vclk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	stopPump := startPump(vclk)
	defer stopPump()

	bed, err := New(socksBedOptions(vclk))
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	defer bed.Close()
	bed.InstallApp(10001, "app.alpha")
	proxy := bed.InstallSOCKS5(upstream.ServerConfig{HangAfterGreeting: true})
	bed.UseSOCKS5(proxy, "", "", 2*time.Second)

	before := vclk.Nanos()
	_, err = bed.Phone.Connect(10001, netip.MustParseAddrPort("203.0.113.10:443"), 60*time.Second)
	if err == nil {
		t.Fatal("connect through hung proxy succeeded")
	}
	if elapsed := time.Duration(vclk.Nanos() - before); elapsed < 2*time.Second {
		t.Fatalf("app saw failure after %v of simulated time, before the 2s dial timeout", elapsed)
	}
	// The engine's connect thread counts the failure concurrently with
	// the RST reaching the app; give it a moment.
	deadline := time.Now().Add(10 * time.Second)
	for bed.Eng.Stats().ConnectFailures != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnectFailures = %d, want 1", bed.Eng.Stats().ConnectFailures)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
