package phonestack

import (
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
	"repro/internal/procnet"
	"repro/internal/stats"
	"repro/internal/tun"
)

var (
	phoneAddr = netip.MustParseAddr("10.0.0.2")
	serverAP  = netip.MustParseAddrPort("93.184.216.34:443")
)

// fakeEngine reads app packets from the TUN and runs a caller-supplied
// handler, standing in for MopEye in these unit tests.
type fakeEngine struct {
	dev    *tun.Device
	handle func(*packet.Packet, *fakeEngine)
	wg     sync.WaitGroup
}

func startFakeEngine(dev *tun.Device, handle func(*packet.Packet, *fakeEngine)) *fakeEngine {
	fe := &fakeEngine{dev: dev, handle: handle}
	dev.SetBlocking(true)
	fe.wg.Add(1)
	go func() {
		defer fe.wg.Done()
		for {
			raw, err := dev.Read()
			if err != nil {
				return
			}
			pkt, err := packet.Decode(raw)
			if err != nil {
				continue
			}
			handle(pkt, fe)
		}
	}()
	return fe
}

func (fe *fakeEngine) send(p *packet.Packet) {
	raw, err := p.AppendEncode(nil)
	if err != nil {
		panic(err)
	}
	_ = fe.dev.Write(raw)
}

// acceptingEngine completes handshakes and echoes data back, acking
// everything — a minimal in-test user-space stack.
func acceptingEngine(dev *tun.Device) *fakeEngine {
	type side struct {
		rcvNxt uint32
		sndNxt uint32
	}
	conns := make(map[netip.AddrPort]*side)
	var mu sync.Mutex
	return startFakeEngine(dev, func(p *packet.Packet, fe *fakeEngine) {
		if !p.IsTCP() {
			return
		}
		t := p.TCP
		app := p.Src()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case t.Has(packet.FlagSYN):
			s := &side{rcvNxt: t.Seq + 1, sndNxt: 9000}
			conns[app] = s
			fe.send(packet.TCPPacket(p.Dst(), app, packet.FlagSYN|packet.FlagACK,
				s.sndNxt, s.rcvNxt, 65535, packet.MSSOption(1460), nil))
			s.sndNxt++
		case t.Has(packet.FlagFIN):
			s := conns[app]
			if s == nil {
				return
			}
			s.rcvNxt = t.Seq + 1
			fe.send(packet.TCPPacket(p.Dst(), app, packet.FlagACK, s.sndNxt, s.rcvNxt, 65535, nil, nil))
		case len(p.Payload) > 0:
			s := conns[app]
			if s == nil {
				return
			}
			if t.Seq != s.rcvNxt {
				return
			}
			s.rcvNxt += uint32(len(p.Payload))
			// Ack, then echo.
			fe.send(packet.TCPPacket(p.Dst(), app, packet.FlagACK, s.sndNxt, s.rcvNxt, 65535, nil, nil))
			fe.send(packet.TCPPacket(p.Dst(), app, packet.FlagACK|packet.FlagPSH,
				s.sndNxt, s.rcvNxt, 65535, nil, append([]byte(nil), p.Payload...)))
			s.sndNxt += uint32(len(p.Payload))
		}
	})
}

func newPhone(t *testing.T) (*Phone, *tun.Device, *procnet.Table) {
	t.Helper()
	clk := clock.NewReal()
	dev := tun.New(clk, 4096)
	table := procnet.NewTable()
	p := New(clk, dev, phoneAddr, table, 1)
	t.Cleanup(func() {
		p.Close()
		dev.Close()
	})
	return p, dev, table
}

func TestConnectHandshake(t *testing.T) {
	p, dev, table := newPhone(t)
	acceptingEngine(dev)
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer c.Close()
	if c.local.Addr() != phoneAddr {
		t.Errorf("local addr: %v", c.local)
	}
	// The proc table must show the connection as established under the
	// right UID — that is what MopEye's mapping reads.
	entries, _ := procnet.AppendParse(nil, table.AppendRender(nil, procnet.TCP), procnet.TCP)
	if len(entries) != 1 {
		t.Fatalf("proc entries: %d", len(entries))
	}
	if entries[0].UID != 10001 || entries[0].State != procnet.StateEstablished {
		t.Errorf("proc entry: %+v", entries[0])
	}
}

func TestConnectTimesOutWithoutEngine(t *testing.T) {
	p, _, _ := newPhone(t)
	p.SynRTO = 10 * time.Millisecond
	p.SynRetries = 2
	start := time.Now()
	_, err := p.Connect(10001, serverAP, 100*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took too long")
	}
}

func TestSYNRetransmission(t *testing.T) {
	p, dev, _ := newPhone(t)
	p.SynRTO = 15 * time.Millisecond
	var mu sync.Mutex
	synCount := 0
	startFakeEngine(dev, func(pkt *packet.Packet, fe *fakeEngine) {
		if !pkt.IsTCP() || !pkt.TCP.Has(packet.FlagSYN) {
			return
		}
		mu.Lock()
		synCount++
		n := synCount
		mu.Unlock()
		if n < 3 {
			return // swallow the first two SYNs
		}
		fe.send(packet.TCPPacket(pkt.Dst(), pkt.Src(), packet.FlagSYN|packet.FlagACK,
			100, pkt.TCP.Seq+1, 65535, nil, nil))
	})
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatalf("connect despite SYN loss: %v", err)
	}
	defer c.Close()
	mu.Lock()
	defer mu.Unlock()
	if synCount < 3 {
		t.Errorf("engine saw %d SYNs, want >= 3", synCount)
	}
}

func TestRefusedOnRST(t *testing.T) {
	p, dev, _ := newPhone(t)
	startFakeEngine(dev, func(pkt *packet.Packet, fe *fakeEngine) {
		if pkt.IsTCP() && pkt.TCP.Has(packet.FlagSYN) {
			fe.send(packet.TCPPacket(pkt.Dst(), pkt.Src(), packet.FlagRST|packet.FlagACK,
				0, pkt.TCP.Seq+1, 0, nil, nil))
		}
	})
	if _, err := p.Connect(10001, serverAP, 5*time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("got %v", err)
	}
}

func TestWriteReadEcho(t *testing.T) {
	p, dev, _ := newPhone(t)
	acceptingEngine(dev)
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("per-app measurement")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := c.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Errorf("echo: %q", buf)
	}
}

func TestWriteSegmentsAtNegotiatedMSS(t *testing.T) {
	p, dev, _ := newPhone(t)
	var mu sync.Mutex
	var sizes []int
	startFakeEngine(dev, func(pkt *packet.Packet, fe *fakeEngine) {
		if !pkt.IsTCP() {
			return
		}
		if pkt.TCP.Has(packet.FlagSYN) {
			// Negotiate a small MSS of 500.
			fe.send(packet.TCPPacket(pkt.Dst(), pkt.Src(), packet.FlagSYN|packet.FlagACK,
				100, pkt.TCP.Seq+1, 65535, packet.MSSOption(500), nil))
			return
		}
		if len(pkt.Payload) > 0 {
			mu.Lock()
			sizes = append(sizes, len(pkt.Payload))
			mu.Unlock()
			fe.send(packet.TCPPacket(pkt.Dst(), pkt.Src(), packet.FlagACK,
				101, pkt.TCP.Seq+uint32(len(pkt.Payload)), 65535, nil, nil))
		}
	})
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(make([]byte, 1600)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, s := range sizes {
			if s > 500 {
				mu.Unlock()
				t.Fatalf("segment of %d bytes exceeds negotiated MSS 500", s)
			}
			total += s
		}
		mu.Unlock()
		if total == 1600 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/1600 bytes arrived", total)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	p, dev, _ := newPhone(t)
	var mu sync.Mutex
	received := 0
	// An engine that never ACKs data: the sender must stop at one
	// window.
	startFakeEngine(dev, func(pkt *packet.Packet, fe *fakeEngine) {
		if !pkt.IsTCP() {
			return
		}
		if pkt.TCP.Has(packet.FlagSYN) {
			fe.send(packet.TCPPacket(pkt.Dst(), pkt.Src(), packet.FlagSYN|packet.FlagACK,
				100, pkt.TCP.Seq+1, 65535, nil, nil))
			return
		}
		mu.Lock()
		received += len(pkt.Payload)
		mu.Unlock()
	})
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		_, _ = c.Write(make([]byte, 200*1024))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("200 KiB written with zero ACKs; window not enforced")
	case <-time.After(100 * time.Millisecond):
	}
	mu.Lock()
	defer mu.Unlock()
	if received > DefaultWindow {
		t.Errorf("received %d bytes, window is %d", received, DefaultWindow)
	}
}

// Like a kernel, Close leaves the socket listed as FIN_WAIT under its
// owner's UID — a lazy mapper may still be about to read it — and the
// peer's FIN removes it.
func TestCloseRemovesProcEntry(t *testing.T) {
	p, dev, table := newPhone(t)
	fe := acceptingEngine(dev)
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 1 {
		t.Fatalf("table len: %d", table.Len())
	}
	c.Close()
	entries, _ := procnet.AppendParse(nil, table.AppendRender(nil, procnet.TCP), procnet.TCP)
	if len(entries) != 1 || entries[0].UID != 10001 || entries[0].State != procnet.StateFinWait1 {
		t.Fatalf("proc entries after close: %+v, want one FIN_WAIT entry for uid 10001", entries)
	}
	fe.send(packet.TCPPacket(serverAP, c.local, packet.FlagFIN|packet.FlagACK, 9001, 0, 65535, nil, nil))
	deadline := time.Now().Add(2 * time.Second)
	for table.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("table len after the peer's FIN: %d", table.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAbortSendsRST(t *testing.T) {
	p, dev, _ := newPhone(t)
	var mu sync.Mutex
	gotRST := false
	startFakeEngine(dev, func(pkt *packet.Packet, fe *fakeEngine) {
		if !pkt.IsTCP() {
			return
		}
		if pkt.TCP.Has(packet.FlagSYN) {
			fe.send(packet.TCPPacket(pkt.Dst(), pkt.Src(), packet.FlagSYN|packet.FlagACK,
				100, pkt.TCP.Seq+1, 65535, nil, nil))
			return
		}
		if pkt.TCP.Has(packet.FlagRST) {
			mu.Lock()
			gotRST = true
			mu.Unlock()
		}
	})
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Abort()
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		ok := gotRST
		mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never saw the RST")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUDPSendRecvViaTun(t *testing.T) {
	p, dev, _ := newPhone(t)
	dnsServer := netip.MustParseAddrPort("8.8.8.8:53")
	startFakeEngine(dev, func(pkt *packet.Packet, fe *fakeEngine) {
		if pkt.IsUDP() && pkt.Dst() == dnsServer {
			fe.send(packet.UDPPacket(dnsServer, pkt.Src(), append([]byte("ok:"), pkt.Payload...)))
		}
	})
	u, err := p.OpenUDP(10002)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendTo(dnsServer, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	payload, from, err := u.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(payload) != "ok:hi" || from != dnsServer {
		t.Errorf("payload %q from %v", payload, from)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	p, _, _ := newPhone(t)
	u, err := p.OpenUDP(10002)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if _, _, err := u.Recv(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("got %v", err)
	}
}

// TestUDPRecvWakesOnDelivery pins the app-side resolver's half of the
// DNS timing: Recv returns on the datagram, not on the next poll of its
// inbox. On a virtual clock that stands still, a delivery must wake it.
// On the real clock, with a goroutine delivering each response 1 ms
// after SendTo, the median lag from delivery to Recv returning must
// stay under 200 µs.
//
// The resolver's Recv blocks on the socket's fifoq.Inbox, not on a
// poll slice, so the test repeats under the race detector: no wakeup
// may be lost.
//
//race:repeat 20
func TestUDPRecvWakesOnDelivery(t *testing.T) {
	dnsServer := netip.MustParseAddrPort("8.8.8.8:53")
	vclk := clock.NewVirtual(time.Unix(0, 0))
	vdev := tun.New(vclk, 64)
	vp := New(vclk, vdev, phoneAddr, procnet.NewTable(), 1)
	defer func() {
		vp.Close()
		vdev.Close()
	}()
	vu, err := vp.OpenUDP(10002)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := vu.Recv(time.Second)
		got <- err
	}()
	for vclk.Pending() == 0 { // Recv has armed its timeout and is waiting
		runtime.Gosched()
	}
	vu.deliver(packet.UDPPacket(dnsServer, vu.local, []byte("ok")))
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("virtual clock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual clock: Recv did not wake on the datagram while the clock stood still")
	}

	p, _, _ := newPhone(t)
	u, err := p.OpenUDP(10002)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	resp := packet.UDPPacket(dnsServer, u.local, []byte("ok"))
	var delivered atomic.Int64
	lags := make([]float64, 0, 50)
	for i := 0; i < cap(lags); i++ {
		if err := u.SendTo(dnsServer, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(time.Millisecond)
			delivered.Store(p.clk.Nanos())
			u.deliver(resp)
		}()
		if _, _, err := u.Recv(time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		lags = append(lags, float64(p.clk.Nanos()-delivered.Load()))
	}
	if med := time.Duration(stats.Median(lags)); med >= 200*time.Microsecond {
		t.Errorf("median delivery-to-Recv lag %v, want under 200µs", med)
	}
}

func TestPhoneCloseTearsDownConnections(t *testing.T) {
	p, dev, _ := newPhone(t)
	acceptingEngine(dev)
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := c.Read(make([]byte, 4)); err == nil {
		t.Error("read succeeded after phone close")
	}
	if _, err := p.Connect(10001, serverAP, time.Second); !errors.Is(err, ErrPhoneDown) {
		t.Errorf("connect after close: %v", err)
	}
}

func TestConcurrentConnectionsDistinctPorts(t *testing.T) {
	p, dev, _ := newPhone(t)
	acceptingEngine(dev)
	const n = 10
	conns := make([]*Conn, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i], errs[i] = p.Connect(10001, serverAP, 5*time.Second)
		}(i)
	}
	wg.Wait()
	seen := make(map[uint16]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("conn %d: %v", i, errs[i])
		}
		port := conns[i].local.Port()
		if seen[port] {
			t.Fatalf("duplicate local port %d", port)
		}
		seen[port] = true
		conns[i].Close()
	}
}

// TestWriteSegmentAllocs pins the phone's cost of sending one MSS
// segment at the one allocation the TUN device makes to copy it in:
// the segment is encoded into pooled scratch straight from the app's
// buffer. The handshake is answered by hand and nothing reads the
// segments afterwards, so the count is Write's alone, and since nothing
// releases the device's buffers either, its pool makes a new one per
// segment; 41 segments stay inside the 64 KiB send window, so Write
// never waits for an ACK.
func TestWriteSegmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	p, dev, _ := newPhone(t)
	dev.SetBlocking(true)
	go func() {
		raw, err := dev.Read()
		if err != nil {
			return
		}
		syn, err := packet.Decode(raw)
		if err != nil {
			return
		}
		synAck, _ := packet.TCPPacket(syn.Dst(), syn.Src(), packet.FlagSYN|packet.FlagACK,
			9000, syn.TCP.Seq+1, 65535, packet.MSSOption(1460), nil).AppendEncode(nil)
		_ = dev.Write(synAck)
	}()
	c, err := p.Connect(10001, serverAP, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	seg := make([]byte, 1460)
	if allocs := testing.AllocsPerRun(40, func() {
		if _, err := c.Write(seg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("Write of one MSS segment: %v allocs/op, want <= 1 (the device's copy)", allocs)
	}
}
