package testbed

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
)

func TestNewWiresEverything(t *testing.T) {
	bed, err := New(Options{
		Link: netsim.LinkParams{Delay: 2 * time.Millisecond},
		Servers: []netsim.ServerSpec{
			EchoServer("echo.example", "203.0.113.1:80", 10*time.Millisecond),
			ChattyServer("chat.example", "203.0.113.2:80", 20*time.Millisecond),
		},
		Sniff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bed.Close()
	bed.InstallApp(100, "test.app")

	if bed.Sniffer == nil {
		t.Error("sniffer not attached")
	}

	// End-to-end through the default-config engine.
	conn, err := bed.Phone.Connect(100, netip.MustParseAddrPort("203.0.113.1:80"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for bed.Store.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := bed.Store.Kind(measure.KindTCP)
	if len(recs) != 1 || recs[0].App != "test.app" {
		t.Fatalf("records: %+v", recs)
	}
}

// The resolver sits on its own path, here slower than the default one,
// so a lookup that took at least the DNS link's round trip shows that
// the bed installed that link. Nothing here depends on how fast the
// host runs: the lookup took at least its round trip, and the engine
// measured it.
func TestDNSPathThroughBed(t *testing.T) {
	dnsLink := netsim.LinkParams{Delay: 5 * time.Millisecond}
	bed, err := New(Options{
		Link:    netsim.LinkParams{Delay: time.Millisecond},
		DNSLink: &dnsLink,
		Servers: []netsim.ServerSpec{EchoServer("named.example", "203.0.113.3:443", 30*time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bed.Close()
	start := time.Now()
	res, err := bed.Phone.Resolve(100, DNSAddr, "named.example", 5*time.Second)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != netip.MustParseAddr("203.0.113.3") {
		t.Errorf("resolved %v", res.Addr)
	}
	rtt := 2 * dnsLink.Delay
	if elapsed < rtt {
		t.Errorf("DNS resolve took %v over a %v round trip", elapsed, rtt)
	}
	bed.Close() // every record is stored once the phone is closed
	recs := bed.Store.Kind(measure.KindDNS)
	if len(recs) != 1 || recs[0].Domain != "named.example" || recs[0].RTT < rtt {
		t.Errorf("DNS records %+v, want one for named.example with an RTT of at least %v", recs, rtt)
	}
}

func TestBadServerSpecRejected(t *testing.T) {
	_, err := New(Options{
		Servers: []netsim.ServerSpec{{Domain: "x.example"}}, // nil handler
	})
	if err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestCloseIsIdempotentAndOrdered(t *testing.T) {
	bed, err := New(Options{Servers: []netsim.ServerSpec{EchoServer("a.example", "203.0.113.4:80", time.Millisecond)}})
	if err != nil {
		t.Fatal(err)
	}
	bed.Close()
	bed.Close() // second close must not panic
}

// TestCloseLeavesNoGoroutines: a closed bed leaves nothing running.
// Three beds in a row each carry one TCP echo and one DNS lookup, so a
// goroutine any of them leaked shows as growth over the count taken
// before the first. Teardown may finish just after Close returns, so
// the count gets a bounded wait to come back.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	server := netip.MustParseAddrPort("203.0.113.5:80")
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		bed, err := New(Options{Servers: []netsim.ServerSpec{EchoServer("leak.example", server.String(), time.Millisecond)}})
		if err != nil {
			t.Fatal(err)
		}
		bed.InstallApp(100, "test.app")
		conn, err := bed.Phone.Connect(100, server, 5*time.Second)
		if err != nil {
			t.Fatalf("bed %d: connect: %v", i, err)
		}
		if _, err := conn.Write([]byte("x")); err != nil {
			t.Fatalf("bed %d: write: %v", i, err)
		}
		if err := conn.ReadFull(make([]byte, 1)); err != nil {
			t.Fatalf("bed %d: echo: %v", i, err)
		}
		conn.Close()
		if _, err := bed.Phone.Resolve(100, DNSAddr, "leak.example", 5*time.Second); err != nil {
			t.Fatalf("bed %d: resolve: %v", i, err)
		}
		bed.Close()
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after closing three beds, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
