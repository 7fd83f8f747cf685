//go:build linux && realtun

package mopeye

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/upstream"
)

// TestRealTunSocksSmoke is the root-gated end-to-end smoke for the real
// data plane: a kernel TUN device carries a live TCP connection from a
// plain client socket through the engine's relay, out a SOCKS5 proxy
// on loopback, to a backend — and the engine's opportunistic
// measurement pipeline attributes the connect RTT to the right app and
// destination from the real /proc/net tables.
//
// The proxy exit is what makes the smoke self-contained: the client
// dials a TEST-NET-2 address routed into the TUN, and the proxy's Dial
// rewrites every CONNECT to the loopback backend. A direct exit would
// dial the original TEST-NET-2 destination, which routes straight back
// into the TUN — a loop by construction — so direct real-TUN operation
// needs a default route and is exercised manually, not here.
//
// Skips (never fails) without root, /dev/net/tun, or the ip tool, so
// the same test file is safe in unprivileged CI.
func TestRealTunSocksSmoke(t *testing.T) {
	if os.Geteuid() != 0 {
		t.Skip("needs root (or CAP_NET_ADMIN) to open and address a TUN device")
	}
	if _, err := os.Stat("/dev/net/tun"); err != nil {
		t.Skipf("no /dev/net/tun: %v", err)
	}
	if _, err := exec.LookPath("ip"); err != nil {
		t.Skipf("no ip tool: %v", err)
	}

	// Loopback backend: read a line, answer, close.
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4)
				if _, err := io.ReadFull(c, buf); err == nil && string(buf) == "ping" {
					c.Write([]byte("pong"))
				}
			}(c)
		}
	}()

	// Authed SOCKS5 proxy on loopback whose Dial rewrites every CONNECT
	// to the backend; it records the dst the engine asked for.
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var mu sync.Mutex
	var connectDsts []netip.AddrPort
	go func() {
		for {
			c, err := proxy.Accept()
			if err != nil {
				return
			}
			go upstream.ServeConn(c, upstream.ServerConfig{
				Username: "smoke", Password: "s3cret",
				Dial: func(dst netip.AddrPort) (io.ReadWriteCloser, error) {
					mu.Lock()
					connectDsts = append(connectDsts, dst)
					mu.Unlock()
					return net.Dial("tcp", backend.Addr().String())
				},
			})
		}
	}()

	phone, err := NewReal(RealOptions{
		TunName:  "mopsmoke0",
		Upstream: fmt.Sprintf("socks5://smoke:s3cret@%s", proxy.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer phone.Close()
	phone.InstallApp(os.Getuid(), "smoketest")

	// The streaming half of the one core, on the kernel plane: a
	// subscription and a Collector started before the flow. The default
	// batch size (256) is far above what the smoke records, so whatever
	// the transport receives is the final upload Close performs.
	stream := phone.Subscribe(context.Background())
	var streamed []Measurement // written by the reader, read after it ends
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for m := range stream {
			streamed = append(streamed, m)
		}
	}()
	var uploaded []Measurement // written on the collector's goroutine, read after Close
	collector, err := phone.Collect(CollectorOptions{
		Device: "smoke-device",
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			uploaded = append(uploaded, b.Records...)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// TEST-NET-2, disjoint from netsim's TEST-NET-1 and from any real
	// container network.
	runIP(t, "addr", "add", "198.51.100.1/24", "dev", phone.Device())
	runIP(t, "link", "set", "dev", phone.Device(), "up")

	const dst = "198.51.100.9:80"
	conn, err := net.DialTimeout("tcp", dst, 10*time.Second)
	if err != nil {
		t.Fatalf("dial through TUN relay: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply := make([]byte, 4)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(reply) != "pong" {
		t.Fatalf("reply = %q, want pong", reply)
	}

	// The proxy must have seen the ORIGINAL destination — the relay
	// CONNECTs to what the app dialed, the proxy decides the exit.
	mu.Lock()
	sawDst := len(connectDsts) == 1 && connectDsts[0].String() == dst
	dsts := fmt.Sprint(connectDsts)
	mu.Unlock()
	if !sawDst {
		t.Errorf("proxy CONNECT dsts = %s, want exactly [%s]", dsts, dst)
	}

	// The measurement pipeline runs asynchronously off the handshake;
	// poll for the attributed record.
	deadline := time.Now().Add(10 * time.Second)
	var rec *Measurement
	for time.Now().Before(deadline) && rec == nil {
		for _, m := range phone.TCPMeasurements() {
			if m.Dst.String() == dst {
				m := m
				rec = &m
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if rec == nil {
		t.Fatalf("no TCP measurement for %s; stats %+v", dst, phone.EngineStats())
	}
	if rec.App != "smoketest" {
		t.Errorf("record attributed to %q, want smoketest (uid %d)", rec.App, rec.UID)
	}
	if rec.RTT <= 0 || rec.RTT > 5*time.Second {
		t.Errorf("implausible connect RTT %v", rec.RTT)
	}
	if ts := phone.TunStats(); ts.PacketsOut == 0 || ts.PacketsIn == 0 {
		t.Errorf("tun stats show no traffic: %+v", ts)
	}

	// Close ends the stream and runs the collector's final upload
	// before the device goes away: each holds the smoke flow's record,
	// the collector's only via that final upload.
	if collector.Uploads() != 0 {
		t.Errorf("collector uploaded %d batches before Close; the final-upload assertion below needs 0", collector.Uploads())
	}
	phone.Close()
	<-streamDone
	if err := collector.Err(); err != nil {
		t.Errorf("collector: %v", err)
	}
	sawSmokeFlow := func(ms []Measurement) bool {
		for _, m := range ms {
			if m.Kind == measure.KindTCP && m.Dst.String() == dst && m.App == "smoketest" {
				return true
			}
		}
		return false
	}
	if !sawSmokeFlow(streamed) {
		t.Errorf("subscription missed the smoke flow's TCP record; got %d records", len(streamed))
	}
	if !sawSmokeFlow(uploaded) || collector.Uploads() != 1 {
		t.Errorf("collector: %d records uploaded in %d batches; want the smoke flow's TCP record uploaded in one",
			len(uploaded), collector.Uploads())
	}
	if n := len(phone.Measurements()); len(streamed) != n || len(uploaded) != n {
		t.Errorf("store holds %d records, subscription %d, collector %d; want all equal", n, len(streamed), len(uploaded))
	}
}

// runIP execs `ip args...`, failing the test with the tool's output.
func runIP(t *testing.T, args ...string) {
	t.Helper()
	out, err := exec.Command("ip", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("ip %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
}
