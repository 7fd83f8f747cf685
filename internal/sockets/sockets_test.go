package sockets

import (
	"errors"
	"math/rand"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/stats"
)

var (
	phoneAddr = netip.MustParseAddr("100.64.0.5")
	serverAP  = netip.MustParseAddrPort("93.184.216.34:80")
	dnsAP     = netip.MustParseAddrPort("8.8.8.8:53")
)

func newProvider(t *testing.T, costs CostModel) (*Provider, *netsim.Network) {
	t.Helper()
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond}, 1)
	net.HandleTCP(serverAP, netsim.EchoHandler())
	net.HandleUDP(dnsAP, 0, func(req []byte, from netip.AddrPort) []byte {
		return append([]byte("r"), req...)
	})
	t.Cleanup(net.Close)
	return NewProvider(net, clk, phoneAddr, costs, 2), net
}

func TestBlockingConnectTiming(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	defer ch.Close()
	start := time.Now()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatalf("connect: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond || elapsed > 40*time.Millisecond {
		t.Errorf("blocking connect took %v, path RTT is 2ms", elapsed)
	}
	if !ch.Connected() {
		t.Error("not connected after Connect")
	}
}

func TestConnectRefused(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	defer ch.Close()
	err := ch.Connect(netip.MustParseAddrPort("93.184.216.34:81"))
	if !errors.Is(err, netsim.ErrRefused) {
		t.Fatalf("got %v", err)
	}
}

func TestDoubleConnectRejected(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	defer ch.Close()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	if err := ch.Connect(serverAP); !errors.Is(err, ErrAlreadyConn) {
		t.Errorf("second connect: %v", err)
	}
}

func TestNonBlockingReadWriteEcho(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	defer ch.Close()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	deadline := time.Now().Add(2 * time.Second)
	got := 0
	for got < 3 {
		n, err := ch.Read(buf[got:])
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got += n
		if n == 0 {
			if time.Now().After(deadline) {
				t.Fatal("echo never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if string(buf[:3]) != "abc" {
		t.Errorf("echo: %q", buf[:3])
	}
}

func TestReadBeforeConnect(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	defer ch.Close()
	if _, err := ch.Read(make([]byte, 4)); !errors.Is(err, ErrNotConnected) {
		t.Errorf("got %v", err)
	}
}

func TestSelectorReadEvent(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	ch := p.Open()
	defer ch.Close()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	key := sel.Register(ch, OpRead, "att")
	if _, err := ch.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	done := make(chan []*SelectionKey, 1)
	go func() { done <- sel.Select() }()
	select {
	case keys := <-done:
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("keys: %v", keys)
		}
		if keys[0].Attachment() != "att" {
			t.Errorf("attachment: %v", keys[0].Attachment())
		}
		if keys[0].ReadyOps()&OpRead == 0 {
			t.Error("not read-ready")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("selector never fired")
	}
}

func TestSelectorWakeup(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	done := make(chan []*SelectionKey, 1)
	go func() { done <- sel.Select() }()
	time.Sleep(2 * time.Millisecond)
	sel.Wakeup()
	select {
	case keys := <-done:
		if len(keys) != 0 {
			t.Errorf("wakeup returned keys: %v", keys)
		}
	case <-time.After(time.Second):
		t.Fatal("Wakeup did not unblock Select")
	}
}

func TestSelectorWakeupBeforeSelect(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	sel.Wakeup() // arrives first; the next Select must not block
	done := make(chan struct{})
	go func() { sel.Select(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("pre-arm wakeup lost")
	}
}

func TestSelectorWriteInterestImmediatelyReady(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	ch := p.Open()
	defer ch.Close()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	key := sel.Register(ch, OpRead, nil)
	key.SetInterestOps(OpRead | OpWrite)
	keys := sel.SelectNow()
	found := false
	for _, k := range keys {
		if k == key && k.ReadyOps()&OpWrite != 0 {
			found = true
		}
	}
	if !found {
		t.Error("write interest did not become ready")
	}
}

func TestSelectNowPolls(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	start := time.Now()
	keys := sel.SelectNow()
	if time.Since(start) > 50*time.Millisecond {
		t.Error("SelectNow blocked")
	}
	if len(keys) != 0 {
		t.Errorf("keys: %v", keys)
	}
}

func TestNonBlockingConnectEvent(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	ch := p.Open()
	defer ch.Close()
	key := sel.Register(ch, OpConnect, nil)
	if err := ch.ConnectNonBlocking(serverAP); err != nil {
		t.Fatal(err)
	}
	done := make(chan []*SelectionKey, 1)
	go func() { done <- sel.Select() }()
	select {
	case keys := <-done:
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("keys: %v", keys)
		}
		if err := ch.FinishConnect(); err != nil {
			t.Errorf("FinishConnect: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("connect event never fired")
	}
}

func TestFinishConnectPendingThenError(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	defer ch.Close()
	if err := ch.ConnectNonBlocking(netip.MustParseAddrPort("93.184.216.34:81")); err != nil {
		t.Fatal(err)
	}
	if err := ch.FinishConnect(); !errors.Is(err, ErrConnPending) {
		t.Fatalf("early FinishConnect: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := ch.FinishConnect()
		if errors.Is(err, ErrConnPending) {
			if time.Now().After(deadline) {
				t.Fatal("connect never completed")
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if !errors.Is(err, netsim.ErrRefused) {
			t.Fatalf("got %v, want ErrRefused", err)
		}
		return
	}
}

func TestProtectCostAndDisallowedExemption(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	defer net.Close()
	costs := CostModel{Protect: func(r *rand.Rand) time.Duration { return 5 * time.Millisecond }}
	p := NewProvider(net, clk, phoneAddr, costs, 2)

	ch := p.Open()
	start := time.Now()
	ch.Protect()
	if time.Since(start) < 4*time.Millisecond {
		t.Error("per-socket protect cost not charged")
	}
	if p.ProtectCalls() != 1 {
		t.Errorf("ProtectCalls = %d", p.ProtectCalls())
	}

	p.AddDisallowedApplication()
	ch2 := p.Open()
	start = time.Now()
	ch2.Protect()
	if time.Since(start) > 2*time.Millisecond {
		t.Error("protect still costly after addDisallowedApplication")
	}
	if p.ProtectCalls() != 1 {
		t.Errorf("exempted protect counted: %d", p.ProtectCalls())
	}
}

func TestRegisterCostCharged(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	defer net.Close()
	costs := CostModel{Register: func(r *rand.Rand) time.Duration { return 4 * time.Millisecond }}
	p := NewProvider(net, clk, phoneAddr, costs, 2)
	sel := p.NewSelector()
	defer sel.Close()
	ch := p.Open()
	defer ch.Close()
	start := time.Now()
	sel.Register(ch, OpRead, nil)
	if time.Since(start) < 3*time.Millisecond {
		t.Error("register cost not charged")
	}
}

func TestUDPSendRecv(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	u := p.OpenUDP()
	defer u.Close()
	u.SendTo(dnsAP, []byte("q"))
	resp, err := u.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(resp) != "rq" {
		t.Errorf("resp: %q", resp)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	u := p.OpenUDP()
	defer u.Close()
	start := time.Now()
	_, err := u.Recv(10 * time.Millisecond)
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) < 9*time.Millisecond {
		t.Error("timeout returned early")
	}
}

// TestUDPCloseReleasesEveryReceiver: the pooled UDP relay can have
// several workers blocked in Recv on one session socket (an A and an
// AAAA query from one port), and its stop relies on Close releasing
// all of them. On a virtual clock that stands still only Close can.
func TestUDPCloseReleasesEveryReceiver(t *testing.T) {
	const receivers = 2
	clk := clock.NewVirtual(time.Unix(0, 0))
	u := NewProvider(nil, clk, phoneAddr, ZeroCosts(), 2).OpenUDP()
	errs := make(chan error, receivers)
	for i := 0; i < receivers; i++ {
		go func() {
			_, err := u.Recv(5 * time.Second)
			errs <- err
		}()
	}
	for clk.Pending() < receivers { // both have armed their timeouts
		runtime.Gosched()
	}
	u.Close()
	for i := 0; i < receivers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosedChannel) {
				t.Fatalf("receiver %d: %v, want ErrClosedChannel", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Close released %d of %d blocked receivers", i, receivers)
		}
	}
}

// TestUDPRecvWakesOnDelivery pins the §2.4 DNS timestamp: Recv returns
// on the datagram, not on the next poll of its inbox. On a virtual
// clock that stands still, a delivery must wake it; a poll loop would
// sleep out its slice until the clock moved. On the real clock, with a
// goroutine delivering each response 1 ms after SendTo, the median lag
// from delivery to Recv returning must stay under 200 µs. A Recv that
// polls in 200 µs slices can lag by about 1 ms there, since on an
// otherwise idle process a sub-ms sleep rounds up to about 1 ms.
func TestUDPRecvWakesOnDelivery(t *testing.T) {
	vclk := clock.NewVirtual(time.Unix(0, 0))
	vp := NewProvider(nil, vclk, phoneAddr, ZeroCosts(), 2)
	var respond func([]byte)
	vp.SetUDPTransport(func(_, _ netip.AddrPort, _ []byte, deliver func([]byte)) { respond = deliver })
	vu := vp.OpenUDP()
	defer vu.Close()
	vu.SendTo(dnsAP, []byte("q"))
	got := make(chan error, 1)
	go func() {
		_, err := vu.Recv(time.Second)
		got <- err
	}()
	for vclk.Pending() == 0 { // Recv has armed its timeout and is waiting
		runtime.Gosched()
	}
	respond([]byte("r"))
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("virtual clock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual clock: Recv did not wake on the datagram while the clock stood still")
	}

	p, _ := newProvider(t, ZeroCosts())
	clk := p.Clk
	var delivered atomic.Int64
	p.SetUDPTransport(func(_, _ netip.AddrPort, payload []byte, deliver func([]byte)) {
		go func() {
			time.Sleep(time.Millisecond)
			delivered.Store(clk.Nanos())
			deliver(payload)
		}()
	})
	u := p.OpenUDP()
	defer u.Close()
	lags := make([]float64, 0, 50)
	for i := 0; i < cap(lags); i++ {
		u.SendTo(dnsAP, []byte("q"))
		if _, err := u.Recv(time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		lags = append(lags, float64(clk.Nanos()-delivered.Load()))
	}
	if med := time.Duration(stats.Median(lags)); med >= 200*time.Microsecond {
		t.Errorf("median delivery-to-Recv lag %v, want under 200µs", med)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	seen := make(map[uint16]bool)
	for i := 0; i < 1000; i++ {
		port := p.EphemeralPort()
		if seen[port] {
			t.Fatalf("port %d allocated twice", port)
		}
		seen[port] = true
	}
}

func TestChannelCloseCancelsKey(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	defer sel.Close()
	ch := p.Open()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	key := sel.Register(ch, OpRead, nil)
	if sel.KeyCount() != 1 {
		t.Fatalf("keys: %d", sel.KeyCount())
	}
	ch.Close()
	if sel.KeyCount() != 0 {
		t.Errorf("key not removed on close: %d", sel.KeyCount())
	}
	if !key.Canceled() {
		t.Error("key not canceled")
	}
}

func TestAndroidCostsMagnitudes(t *testing.T) {
	c := AndroidCosts()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if d := c.Protect(r); d < 0 || d > 20*time.Millisecond {
			t.Fatalf("protect cost %v out of band", d)
		}
		if d := c.Register(r); d < 0 || d > 10*time.Millisecond {
			t.Fatalf("register cost %v out of band", d)
		}
		if d := c.Dispatch(r); d < 0 || d > 10*time.Millisecond {
			t.Fatalf("dispatch cost %v out of band", d)
		}
	}
}

func TestEOFSurfacesThroughChannel(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: time.Millisecond}, 1)
	defer net.Close()
	net.HandleTCP(serverAP, netsim.SourceHandler(4))
	p := NewProvider(net, clk, phoneAddr, ZeroCosts(), 2)
	ch := p.Open()
	defer ch.Close()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, err := ch.Read(buf)
		got += n
		if errors.Is(err, ErrEOF) {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("EOF never arrived (got %d bytes)", got)
		}
		if n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if got != 4 {
		t.Errorf("got %d bytes before EOF, want 4", got)
	}
}

func TestWriteAfterClose(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	ch.Close()
	if _, err := ch.Read(make([]byte, 4)); err == nil {
		t.Error("read after close succeeded")
	}
}

func TestConnectAfterClose(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	ch.Close()
	if err := ch.Connect(serverAP); !errors.Is(err, ErrClosedChannel) {
		t.Errorf("got %v", err)
	}
}

func TestResetAbortsPeer(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	ch := p.Open()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if err := ch.Reset(); err != nil {
		t.Fatalf("double reset: %v", err)
	}
}

func TestSelectorCloseUnblocksSelect(t *testing.T) {
	p, _ := newProvider(t, ZeroCosts())
	sel := p.NewSelector()
	done := make(chan struct{})
	go func() { sel.Select(); close(done) }()
	time.Sleep(2 * time.Millisecond)
	sel.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Select")
	}
}
