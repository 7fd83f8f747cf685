package netsim

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// echoRTT does one request/response round trip on an established
// connection and returns how long it took.
func echoRTT(t *testing.T, c *Conn) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 4)
	got := 0
	for got < len(buf) {
		k, err := c.Read(buf[got:])
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got += k
	}
	return time.Since(start)
}

// The handover contract: SetLink must reshape connections that are
// already established, not just future dials. An echo round trip on a
// conn dialed at 5 ms one-way delay must slow down to the new 40 ms
// link after a mid-flow SetLink.
func TestSetLinkAffectsEstablishedConn(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: 5 * time.Millisecond}, 1)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	before := echoRTT(t, c)
	if before > 45*time.Millisecond {
		t.Fatalf("pre-handover echo RTT %v, want well under 45ms on a 10ms link", before)
	}

	n.SetLink(serverAP.Addr(), LinkParams{Delay: 40 * time.Millisecond})
	after := echoRTT(t, c)
	if after < 70*time.Millisecond {
		t.Errorf("post-handover echo RTT %v on the established conn, want >= 70ms (new link RTT 80ms)", after)
	}
}

// A datagram already at the server when the link changes must come back
// over the new path: the request leaves on a 1 ms link, the link
// shifts to 40 ms one-way while the server is thinking, and the
// response must pay the new return delay.
func TestSetLinkAffectsInFlightUDP(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: time.Millisecond}, 1)
	defer n.Close()
	n.HandleUDP(serverAP, 50*time.Millisecond, EchoUDPHandler())

	done := make(chan time.Duration, 1)
	start := time.Now()
	n.SendUDP(clientAP, serverAP, []byte("probe"), func([]byte) {
		done <- time.Since(start)
	})
	// Shift the link while the request sits in the server's think time.
	time.Sleep(20 * time.Millisecond)
	n.SetLink(serverAP.Addr(), LinkParams{Delay: 40 * time.Millisecond})

	select {
	case rtt := <-done:
		// 1ms out + 50ms think + 40ms back ≈ 91ms; a stale snapshot
		// would return in ≈ 52ms.
		if rtt < 75*time.Millisecond {
			t.Errorf("in-flight datagram returned in %v, want >= 75ms (response must travel the post-handover link)", rtt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never delivered")
	}
}

// Pins the documented per-direction UDP loss semantics: with Loss p
// drawn independently for request and response, transactions survive at
// (1-p)², not (1-p). Seeded, so the observed rate is reproducible.
func TestUDPLossIsPerDirection(t *testing.T) {
	const (
		p     = 0.3
		total = 600
	)
	n := New(clock.NewReal(), LinkParams{Delay: 100 * time.Microsecond, Loss: p}, 42)
	defer n.Close()
	n.HandleUDP(serverAP, 0, EchoUDPHandler())

	var delivered atomic.Int64
	for i := 0; i < total; i++ {
		n.SendUDP(clientAP, serverAP, []byte("x"), func([]byte) {
			delivered.Add(1)
		})
	}
	deadline := time.After(2 * time.Second)
	last, stable := int64(-1), 0
	for stable < 5 {
		select {
		case <-deadline:
			t.Fatalf("deliveries never quiesced: %d so far", delivered.Load())
		default:
		}
		time.Sleep(20 * time.Millisecond)
		if cur := delivered.Load(); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
	rate := float64(delivered.Load()) / total
	want := (1 - p) * (1 - p) // 0.49
	if rate < want-0.08 || rate > want+0.08 {
		t.Errorf("delivery rate %.3f, want ≈ (1-p)² = %.2f ± 0.08", rate, want)
	}
	// Distinguishes the two-direction draw from a single-draw model,
	// whose survival would be 1-p = 0.7.
	if rate > 0.62 {
		t.Errorf("delivery rate %.3f is consistent with a single loss draw (0.70), not per-direction (%.2f)", rate, want)
	}
}

// SharedQueue is the bufferbloat model: a bulk upload parks bytes on
// the shared bottleneck queue and a subsequent handshake's SYN waits
// behind them, inflating the measured connect RTT.
func TestBufferbloatInflatesHandshake(t *testing.T) {
	link := LinkParams{Delay: 2 * time.Millisecond, Up: Mbps(1), Down: Mbps(4), SharedQueue: true}
	n := New(clock.NewReal(), link, 1)
	defer n.Close()
	n.HandleTCP(serverAP, CountingSinkHandler(new(atomic.Int64)))

	start := time.Now()
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if idle := time.Since(start); idle > 60*time.Millisecond {
		t.Fatalf("idle-queue dial took %v, want near the 4ms base RTT", idle)
	}

	// 64 KiB at 1 Mbps books ~0.5s onto the shared uplink queue.
	if _, err := c.Write(make([]byte, 64<<10)); err != nil {
		t.Fatalf("bulk write: %v", err)
	}
	start = time.Now()
	c2, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial under load: %v", err)
	}
	defer c2.Close()
	loaded := time.Since(start)
	if loaded < 200*time.Millisecond {
		t.Errorf("dial under a full uplink queue took %v, want >= 200ms of queue delay", loaded)
	}
}

// Timeline steps fire in order at their offsets, and stop cancels the
// ones that have not fired.
func TestStartTimelineFiresAndStops(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: time.Millisecond}, 1)
	defer n.Close()
	dst := serverAP.Addr()

	stop := n.StartTimeline([]netip.Addr{dst}, []TimelineStep{
		{At: 20 * time.Millisecond, Link: LinkParams{Delay: 7 * time.Millisecond}},
		{At: 60 * time.Millisecond, Link: LinkParams{Delay: 9 * time.Millisecond}},
	})
	defer stop()
	waitForDelay := func(want time.Duration) bool {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if n.linkFor(dst).params().Delay == want {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !waitForDelay(7 * time.Millisecond) {
		t.Fatalf("first step never applied; delay = %v", n.linkFor(dst).params().Delay)
	}
	if !waitForDelay(9 * time.Millisecond) {
		t.Fatalf("second step never applied; delay = %v", n.linkFor(dst).params().Delay)
	}

	stop2 := n.StartTimeline([]netip.Addr{dst}, []TimelineStep{
		{At: 50 * time.Millisecond, Link: LinkParams{Delay: 99 * time.Millisecond}},
	})
	stop2()
	time.Sleep(80 * time.Millisecond)
	if got := n.linkFor(dst).params().Delay; got == 99*time.Millisecond {
		t.Error("cancelled timeline step still fired")
	}
}

// ApplyProfile installs the app link on every destination and the DNS
// override on the resolver.
func TestApplyProfileInstallsLinks(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: time.Millisecond}, 1)
	defer n.Close()
	p := ProfileDNSFlaky()
	stop := ApplyProfile(n, p, []netip.Addr{serverAP.Addr()}, dnsAP.Addr())
	defer stop()
	if got := n.linkFor(serverAP.Addr()).params(); got != p.Link {
		t.Errorf("app link = %+v, want %+v", got, p.Link)
	}
	if got := n.linkFor(dnsAP.Addr()).params(); got != *p.DNS {
		t.Errorf("dns link = %+v, want %+v", got, *p.DNS)
	}
}

// Hammers SetLink from a timeline while traffic flows on established
// connections and datagrams are in flight — the -race target for the
// live-link plumbing.
func TestSetLinkRaceUnderTraffic(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}, 7)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	n.HandleUDP(dnsAP, 0, EchoUDPHandler())

	var steps []TimelineStep
	for i := 0; i < 40; i++ {
		steps = append(steps, TimelineStep{
			At:   time.Duration(i) * 2 * time.Millisecond,
			Link: LinkParams{Delay: time.Duration(100+i*50) * time.Microsecond, SharedQueue: i%2 == 0, Up: Mbps(50), Down: Mbps(50)},
		})
	}
	stop := n.StartTimeline([]netip.Addr{serverAP.Addr(), dnsAP.Addr()}, steps)
	defer stop()

	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	deadline := time.Now().Add(100 * time.Millisecond)
	buf := make([]byte, 4)
	for time.Now().Before(deadline) {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatalf("write: %v", err)
		}
		for got := 0; got < 4; {
			k, err := c.Read(buf[got:])
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			got += k
		}
		n.SendUDP(clientAP, dnsAP, []byte("q"), func([]byte) {})
		if _, err := n.Dial(clientAP, serverAP); err == nil {
			// Redial churn exercises linkFor + handshake under mutation.
		}
	}
}
