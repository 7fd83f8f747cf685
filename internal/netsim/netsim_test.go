package netsim

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnsmsg"
)

var (
	clientAP = netip.MustParseAddrPort("100.64.0.5:40000")
	serverAP = netip.MustParseAddrPort("93.184.216.34:80")
	dnsAP    = netip.MustParseAddrPort("8.8.8.8:53")
)

func newNet(delay time.Duration) *Network {
	return New(clock.NewReal(), LinkParams{Delay: delay}, 1)
}

func TestDialTakesOneRTT(t *testing.T) {
	n := newNet(3 * time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	start := time.Now()
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	elapsed := time.Since(start)
	if elapsed < 6*time.Millisecond {
		t.Errorf("dial took %v, want >= RTT 6ms", elapsed)
	}
	if elapsed > 60*time.Millisecond {
		t.Errorf("dial took %v, too slow", elapsed)
	}
}

func TestDialRefusedAfterRTT(t *testing.T) {
	n := newNet(2 * time.Millisecond)
	defer n.Close()
	start := time.Now()
	_, err := n.Dial(clientAP, serverAP)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("got %v, want ErrRefused", err)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Error("RST arrived before a round trip")
	}
}

func TestEchoData(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	msg := []byte("ping over simulated wire")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	got := 0
	for got < len(msg) {
		k, err := c.Read(buf[got:])
		got += k
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if string(buf) != string(msg) {
		t.Errorf("echo: %q", buf)
	}
}

func TestEOFPropagates(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, SourceHandler(100))
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	total := 0
	buf := make([]byte, 64)
	for {
		k, err := c.Read(buf)
		total += k
		if err != nil {
			if !errors.Is(err, ErrEOFConn) {
				t.Fatalf("read: %v", err)
			}
			break
		}
	}
	if total != 100 {
		t.Errorf("got %d bytes, want 100", total)
	}
}

func TestResetPropagates(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	ready := make(chan *Conn, 1)
	n.HandleTCP(serverAP, func(c *Conn) { ready <- c })
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	server := <-ready
	server.Reset()
	buf := make([]byte, 8)
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.TryRead(buf)
		if errors.Is(err, ErrReset) {
			return
		}
		if errors.Is(err, ErrWouldBlock) {
			if time.Now().After(deadline) {
				t.Fatal("reset never arrived")
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("unexpected read error: %v", err)
		}
	}
}

func TestFlowControlBackpressure(t *testing.T) {
	n := newNet(100 * time.Microsecond)
	defer n.Close()
	// A sink that never reads: the sender must stall once the receive
	// buffer and the send queue fill — the kernel-TCP behaviour that
	// bounds throughput to window/RTT (Table 3's mechanism).
	n.HandleTCP(serverAP, func(c *Conn) {
		select {} // never reads, never closes
	})
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	written := make(chan int, 1)
	go func() {
		total := 0
		chunk := make([]byte, 8192)
		for total < 4<<20 {
			k, err := c.Write(chunk)
			total += k
			if err != nil {
				break
			}
		}
		written <- total
	}()
	select {
	case total := <-written:
		t.Fatalf("writer pushed %d bytes into a non-reading peer", total)
	case <-time.After(100 * time.Millisecond):
		// Blocked, as flow control demands.
	}
}

func TestBandwidthLimitsThroughput(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: 500 * time.Microsecond, Down: Mbps(50)}, 1)
	defer n.Close()
	const total = 256 * 1024 // 256 KiB at 50 Mbps ~ 42 ms
	n.HandleTCP(serverAP, SourceHandler(total))
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	buf := make([]byte, 32*1024)
	got := 0
	for {
		k, err := c.Read(buf)
		got += k
		if err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	if got != total {
		t.Fatalf("got %d want %d", got, total)
	}
	ideal := time.Duration(float64(total) / float64(Mbps(50)) * float64(time.Second))
	if elapsed < ideal {
		t.Errorf("transfer finished in %v, faster than the %v line rate", elapsed, ideal)
	}
	if elapsed > 5*ideal {
		t.Errorf("transfer took %v, line rate only needs %v", elapsed, ideal)
	}
}

func TestSYNLossRecoversViaRetransmit(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: time.Millisecond, Loss: 0.5}, 7)
	defer n.Close()
	n.SetSYNRetry(5*time.Millisecond, 10)
	n.HandleTCP(serverAP, EchoHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial with 50%% SYN loss: %v", err)
	}
	c.Close()
}

func TestSYNTimeoutWhenFullyLossy(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: time.Millisecond, Loss: 1.0}, 7)
	defer n.Close()
	n.SetSYNRetry(time.Millisecond, 3)
	n.HandleTCP(serverAP, EchoHandler())
	if _, err := n.Dial(clientAP, serverAP); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

func TestPerDestinationLinkOverride(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	far := netip.MustParseAddrPort("108.160.166.126:443")
	n.SetLink(far.Addr(), LinkParams{Delay: 20 * time.Millisecond})
	n.HandleTCP(far, EchoHandler())
	n.HandleTCP(serverAP, EchoHandler())

	start := time.Now()
	c1, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	nearTime := time.Since(start)
	c1.Close()

	start = time.Now()
	c2, err := n.Dial(clientAP, far)
	if err != nil {
		t.Fatal(err)
	}
	farTime := time.Since(start)
	c2.Close()

	if farTime < 5*nearTime {
		t.Errorf("far dial %v not much slower than near dial %v", farTime, nearTime)
	}
}

func TestSnifferSeesSYNAndSYNACK(t *testing.T) {
	n := newNet(2 * time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	var mu sync.Mutex
	var events []WireEvent
	n.AddSniffer(func(ev WireEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 2 {
		t.Fatalf("events: %d", len(events))
	}
	if events[0].Kind != EventSYN || events[1].Kind != EventSYNACK {
		t.Fatalf("kinds: %v %v", events[0].Kind, events[1].Kind)
	}
	rtt := time.Duration(events[1].At - events[0].At)
	if rtt < 4*time.Millisecond || rtt > 40*time.Millisecond {
		t.Errorf("wire RTT %v, configured 4ms", rtt)
	}
}

func TestUDPRequestResponse(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleUDP(dnsAP, 0, func(req []byte, from netip.AddrPort) []byte {
		return append([]byte("re:"), req...)
	})
	got := make(chan []byte, 1)
	start := time.Now()
	n.SendUDP(clientAP, dnsAP, []byte("q"), func(resp []byte) { got <- resp })
	select {
	case resp := <-got:
		if string(resp) != "re:q" {
			t.Errorf("resp: %q", resp)
		}
		if time.Since(start) < 2*time.Millisecond {
			t.Error("UDP round trip faster than the link allows")
		}
	case <-time.After(time.Second):
		t.Fatal("no UDP response")
	}
}

func TestUDPLossDropsSilently(t *testing.T) {
	n := New(clock.NewReal(), LinkParams{Delay: time.Millisecond, Loss: 1.0}, 3)
	defer n.Close()
	n.HandleUDP(dnsAP, 0, func(req []byte, from netip.AddrPort) []byte { return req })
	got := make(chan []byte, 1)
	n.SendUDP(clientAP, dnsAP, []byte("q"), func(resp []byte) { got <- resp })
	select {
	case <-got:
		t.Fatal("response arrived despite 100% loss")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestDNSHandlerResolvesAndNXDomains(t *testing.T) {
	zone := NewZone()
	addr := netip.MustParseAddr("31.13.79.251")
	zone.Add("graph.facebook.com", addr)
	h := DNSHandler(zone)

	q := dnsmsg.NewQuery(77, "graph.facebook.com", dnsmsg.TypeA)
	raw, _ := q.Encode()
	resp := h(raw, clientAP)
	m, err := dnsmsg.Decode(resp)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := m.Answers[0].Addr()
	if !ok || got != addr {
		t.Errorf("answer: %v", got)
	}

	q2 := dnsmsg.NewQuery(78, "unknown.example", dnsmsg.TypeA)
	raw2, _ := q2.Encode()
	m2, err := dnsmsg.Decode(h(raw2, clientAP))
	if err != nil {
		t.Fatalf("decode nx: %v", err)
	}
	if m2.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("rcode: %d", m2.RCode)
	}

	if h([]byte{1, 2}, clientAP) != nil {
		t.Error("garbage query got a response")
	}
}

func TestZoneCaseInsensitive(t *testing.T) {
	zone := NewZone()
	zone.Add("Example.COM.", netip.MustParseAddr("1.1.1.1"))
	if _, ok := zone.Lookup("example.com"); !ok {
		t.Error("case/dot normalisation failed")
	}
}

func TestInstall(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	specs := []ServerSpec{
		{Domain: "a.example", Addr: netip.MustParseAddrPort("10.1.0.1:80"), Link: LinkParams{Delay: time.Millisecond}, Handler: EchoHandler()},
		{Domain: "b.example", Addr: netip.MustParseAddrPort("10.1.0.2:80"), Link: LinkParams{Delay: 2 * time.Millisecond}, Handler: EchoHandler()},
	}
	zone, err := Install(n, specs, dnsAP, LinkParams{Delay: time.Millisecond}, 0)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if zone.Len() != 2 {
		t.Errorf("zone size: %d", zone.Len())
	}
	if _, ok := zone.Lookup("a.example"); !ok {
		t.Error("a.example missing")
	}
	c, err := n.Dial(clientAP, specs[0].Addr)
	if err != nil {
		t.Fatalf("dial installed server: %v", err)
	}
	c.Close()
}

func TestInstallRejectsNilHandler(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	_, err := Install(n, []ServerSpec{{Domain: "x", Addr: serverAP}}, dnsAP, LinkParams{}, 0)
	if err == nil {
		t.Error("nil handler accepted")
	}
}

func TestDialAfterNetworkClose(t *testing.T) {
	n := newNet(time.Millisecond)
	n.HandleTCP(serverAP, EchoHandler())
	n.Close()
	if _, err := n.Dial(clientAP, serverAP); !errors.Is(err, ErrNetDown) {
		t.Errorf("got %v, want ErrNetDown", err)
	}
}

func TestHalfCloseStillDeliversPendingData(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, func(c *Conn) {
		defer c.Close()
		_, _ = c.Write([]byte("tail"))
		c.CloseWrite()
	})
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 16)
	got := 0
	for {
		k, err := c.Read(buf[got:])
		got += k
		if err != nil {
			break
		}
	}
	if string(buf[:got]) != "tail" {
		t.Errorf("data before EOF: %q", buf[:got])
	}
}

func TestChattyHandler(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, ChattyHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{0, 0, 0, 100}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	got := 0
	for got < 100 {
		k, err := c.Read(buf[got:])
		got += k
		if err != nil {
			t.Fatalf("read: %v (got %d)", err, got)
		}
	}
}

func TestHTTPPingHandler(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, HTTPPingHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("HEAD / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	k, err := c.Read(buf)
	if err != nil || k == 0 {
		t.Fatalf("read: %d %v", k, err)
	}
	if string(buf[:12]) != "HTTP/1.1 204" {
		t.Errorf("response: %q", buf[:k])
	}
}

func TestMbps(t *testing.T) {
	if Mbps(8) != 1e6 {
		t.Errorf("Mbps(8) = %d bytes/s", Mbps(8))
	}
}

func TestWriteLargerThanReceiveBuffer(t *testing.T) {
	// Regression: a single Write exceeding the 64 KiB receive buffer
	// must trickle through flow control, not deadlock behind it.
	n := newNet(100 * time.Microsecond)
	defer n.Close()
	n.HandleTCP(serverAP, func(c *Conn) {
		defer c.Close()
		big := make([]byte, 256*1024)
		if _, err := c.Write(big); err != nil {
			return
		}
		c.CloseWrite()
	})
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := 0
	buf := make([]byte, 32*1024)
	deadline := time.Now().Add(10 * time.Second)
	for {
		k, err := c.Read(buf)
		got += k
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d bytes", got)
		}
	}
	if got != 256*1024 {
		t.Fatalf("got %d of %d bytes", got, 256*1024)
	}
}

func TestConcurrentDials(t *testing.T) {
	n := newNet(time.Millisecond)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	const k = 20
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			src := netip.AddrPortFrom(clientAP.Addr(), uint16(41000+i))
			c, err := n.Dial(src, serverAP)
			if err == nil {
				c.Close()
			}
			errs <- err
		}(i)
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
}

// TestLoopbackBatchWriteIntegrity drives a loopback write spanning many
// chunks (well past both the segmentation grain and the peer's receive
// buffer): it must arrive intact and in order, with flow control still
// backpressuring between chunks (the reader drains concurrently, or the
// write could never finish).
func TestLoopbackBatchWriteIntegrity(t *testing.T) {
	n := newNet(0)
	n.SetLoopback(true)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	payload := make([]byte, 200*1024) // > 3× the 64 KiB receive buffer
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		if _, werr := c.Write(payload); werr != nil {
			t.Errorf("write: %v", werr)
		}
	}()
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 32*1024)
	for len(got) < len(payload) {
		nn, rerr := c.Read(buf)
		got = append(got, buf[:nn]...)
		if rerr != nil {
			t.Fatalf("read after %d bytes: %v", len(got), rerr)
		}
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("corruption at byte %d: got %#x want %#x", i, got[i], payload[i])
		}
	}
}

// TestLoopbackBatchFiresReadableCallback checks the selector contract
// for a multi-chunk loopback write: its first chunk into an empty
// mailbox fires the readability callback.
func TestLoopbackBatchFiresReadableCallback(t *testing.T) {
	n := newNet(0)
	n.SetLoopback(true)
	defer n.Close()
	ready := make(chan struct{}, 1)
	n.HandleTCP(serverAP, func(c *Conn) {
		defer c.Close()
		c.SetOnReadable(func() {
			select {
			case ready <- struct{}{}:
			default:
			}
		})
		<-ready // observed readability
		buf := make([]byte, 64*1024)
		total := 0
		for total < 40*1024 {
			nn, err := c.Read(buf)
			total += nn
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
		}
	})
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write(make([]byte, 40*1024)); err != nil { // multi-chunk write
		t.Fatalf("write: %v", err)
	}
}
