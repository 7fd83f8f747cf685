package sniffer

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

var (
	client = netip.MustParseAddrPort("100.64.0.5:40000")
	server = netip.MustParseAddrPort("93.184.216.34:80")
)

func TestHandshakePairing(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: 3 * time.Millisecond}, 1)
	defer net.Close()
	net.HandleTCP(server, netsim.EchoHandler())
	s := New(net)
	c, err := net.Dial(client, server)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	samples := s.RTTsTo(server)
	if len(samples) != 1 {
		t.Fatalf("samples: %d", len(samples))
	}
	if ms := samples[0]; ms < 6 || ms > 40 {
		t.Errorf("RTT %.2f ms, configured 6", ms)
	}
	if got := s.RTTsTo(client); len(got) != 0 {
		t.Errorf("RTTsTo(local end): %v", got)
	}
}

func TestRefusedConnectionNotPaired(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond}, 1)
	defer net.Close()
	s := New(net)
	if _, err := net.Dial(client, server); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if got := s.RTTsTo(server); len(got) != 0 {
		t.Errorf("refused connect produced samples: %v", got)
	}
}

func TestRetransmittedSYNUsesLatestAttempt(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond, Loss: 0.6}, 5)
	defer net.Close()
	net.SetSYNRetry(5*time.Millisecond, 20)
	net.HandleTCP(server, netsim.EchoHandler())
	s := New(net)
	c, err := net.Dial(client, server)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	samples := s.RTTsTo(server)
	if len(samples) != 1 {
		t.Fatalf("samples: %d", len(samples))
	}
	// The RTT must reflect one handshake, not the whole retry sequence
	// (each retry costs a 5 ms RTO on top of the 2 ms RTT).
	if ms := samples[0]; ms > 4+2*10 {
		t.Errorf("paired across retransmissions: %.2f ms", ms)
	}
}

// Regression for the pending-map key: two handshakes from the same
// local port overlapping in time (dial to a slow server, then to a
// fast one before the first completes) must each pair with their own
// SYN-ACK. Keyed by local address alone, the fast server's SYN
// overwrote the slow server's pending timestamp and the slow SYN-ACK
// found nothing to pair with.
func TestOverlappingDialsPairPerFlow(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond}, 1)
	defer net.Close()
	slow := netip.MustParseAddrPort("93.184.216.40:80")
	fast := netip.MustParseAddrPort("93.184.216.41:80")
	net.SetLink(slow.Addr(), netsim.LinkParams{Delay: 25 * time.Millisecond})
	net.SetLink(fast.Addr(), netsim.LinkParams{Delay: time.Millisecond})
	net.HandleTCP(slow, netsim.EchoHandler())
	net.HandleTCP(fast, netsim.EchoHandler())
	s := New(net)

	done := make(chan *netsim.Conn, 1)
	go func() {
		c, err := net.Dial(client, slow) // 50ms handshake
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- c
	}()
	time.Sleep(10 * time.Millisecond) // slow SYN is on the wire
	cf, err := net.Dial(client, fast) // overlaps: same local, other remote
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	cs := <-done
	if cs != nil {
		defer cs.Close()
	}

	if got := s.RTTsTo(fast); len(got) != 1 || got[0] > 20 {
		t.Errorf("fast flow samples = %v, want one ≈2ms sample", got)
	}
	if got := s.RTTsTo(slow); len(got) != 1 || got[0] < 40 {
		t.Errorf("slow flow samples = %v, want one ≈50ms sample (not mispaired with the fast handshake)", got)
	}
}

// The tap keeps 8 B per handshake: the wire events of 10,000 dials to
// one server, replayed into a fresh sniffer, leave at most 16 B each
// on the heap (slice growth slack included). A packet trace or a
// per-handshake record with both addresses would not fit. The events
// are captured first so the measured window holds the sniffer's work
// alone, not the network's connection goroutines.
func TestSnifferBytesPerHandshake(t *testing.T) {
	const dials = 10_000
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	defer net.Close()
	net.SetLoopback(true)
	net.HandleTCP(server, func(c *netsim.Conn) { c.Close() })
	var mu sync.Mutex
	events := make([]netsim.WireEvent, 0, 2*dials)
	net.AddSniffer(func(ev netsim.WireEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	for i := 0; i < dials; i++ {
		c, err := net.Dial(netip.AddrPortFrom(client.Addr(), uint16(20000+i)), server)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	mu.Lock()
	wire := events
	mu.Unlock()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := &Sniffer{pending: make(map[flowKey]int64), rtts: make(map[netip.AddrPort][]time.Duration)}
	for _, ev := range wire {
		s.observe(ev)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	if got := len(s.RTTsTo(server)); got != dials {
		t.Fatalf("%d handshakes paired from %d wire events, want %d", got, len(wire), dials)
	}
	perHandshake := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / dials
	t.Logf("%.1f B per handshake", perHandshake)
	if perHandshake > 16 {
		t.Errorf("sniffer holds %.1f B per handshake, want at most 16", perHandshake)
	}
}
