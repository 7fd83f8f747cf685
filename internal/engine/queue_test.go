package engine

import (
	"bytes"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tcpsm"
	"repro/internal/tun"
)

// TestPacketQueueSteadyStateAllocFree pins the write queue's half of
// the allocation-free relay path: once the backing array exists, a
// put/take pair reuses its slots, under both put algorithms.
func TestPacketQueueSteadyStateAllocFree(t *testing.T) {
	raw := []byte{1, 2, 3}
	for _, newPut := range []bool{false, true} {
		q := newPacketQueue(clock.NewReal(), newPut, 1)
		if allocs := testing.AllocsPerRun(1000, func() {
			q.put(raw)
			if _, ok := q.take(); !ok {
				t.Fatal("take missed")
			}
		}); allocs != 0 {
			t.Errorf("newPut=%v: put/take allocates %.1f per op, want 0", newPut, allocs)
		}
	}
}

// TestPutHandoffRule pins what put charges when the TunWriter is
// blocked in take: oldPut pays the notify handoff every time, newPut
// only once the writer has been idle for parkAfter. On the virtual
// clock the handoff is a sleep that holds put until the clock moves, so
// a charged put shows as a pending timer.
func TestPutHandoffRule(t *testing.T) {
	for _, c := range []struct {
		name    string
		newPut  bool
		idle    time.Duration
		charged bool
	}{
		{"oldPut", false, 0, true},
		{"newPut idle under parkAfter", true, parkAfter - time.Microsecond, false},
		{"newPut idle parkAfter", true, parkAfter, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := clock.NewVirtual(time.Unix(0, 0))
			q := newPacketQueue(clk, c.newPut, 1)
			taken := make(chan struct{})
			go func() {
				if _, ok := q.take(); ok {
					close(taken)
				}
			}()
			for waiting := false; !waiting; runtime.Gosched() {
				q.mu.Lock()
				waiting = q.waiting
				q.mu.Unlock()
			}
			clk.Advance(c.idle)

			put := make(chan struct{})
			go func() {
				q.put([]byte{1})
				close(put)
			}()
			returned := func() bool {
				select {
				case <-put:
					return true
				default:
					return false
				}
			}
			for clk.Pending() == 0 && !returned() {
				runtime.Gosched()
			}
			charged := clk.Pending() > 0
			clk.Advance(5 * time.Millisecond) // past notifyHandoff's longest draw
			<-put
			<-taken
			if charged != c.charged {
				t.Errorf("handoff charged = %v, want %v", charged, c.charged)
			}
			if h := q.putHistogram(); h.Total != 1 {
				t.Errorf("put histogram holds %d samples, want 1", h.Total)
			}
		})
	}
}

// TestEmitCopiesBorrowedPayload pins the engine's side of tcpsm's emit
// borrow rule: SendData lends slices of the caller's buffer, and
// Engine.emit must have encoded them into buffers of its own by the
// time it returns — the segments below sit in the write queue while
// their source is overwritten, as they do when socketRead reuses the
// worker's read buffer for the next flow.
func TestEmitCopiesBorrowedPayload(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	defer net.Close()
	dev := tun.New(clk, 64)
	defer dev.Close()
	table := procnet.NewTable()
	e := New(Default(), Deps{
		Clock:    clk,
		Device:   dev,
		Sockets:  sockets.NewProvider(net, clk, netip.MustParseAddr("100.64.0.5"), sockets.CostModel{}, 3),
		ProcNet:  procnet.NewReader(table, clk, procnet.ZeroParseCost(), 4),
		Packages: procnet.NewPackageManager(),
	})
	if e.writeQ == nil {
		t.Fatal("default write scheme has no queue")
	}

	app, server := netip.MustParseAddrPort("10.0.0.2:40001"), netip.MustParseAddrPort("93.184.216.34:443")
	syn := packet.TCPPacket(app, server, packet.FlagSYN, 1000, 0, 65535, packet.MSSOption(1460), nil)
	m, err := tcpsm.New(syn, 5000, e.emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteHandshake(); err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 3*tcpsm.DefaultMSS+1)
	rand.New(rand.NewSource(3)).Read(src)
	want := append([]byte(nil), src...)
	if err := m.SendData(src); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 0xEE
	}

	var got []byte
	for i := 0; i < 5; i++ { // the SYN-ACK, then four segments
		raw, ok := e.writeQ.take()
		if !ok {
			t.Fatal("write queue closed")
		}
		if err := packet.VerifyChecksums(raw); err != nil {
			t.Fatalf("queued packet %d: %v", i, err)
		}
		p, err := packet.Decode(raw)
		if err != nil {
			t.Fatalf("queued packet %d: %v", i, err)
		}
		got = append(got, p.Payload...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("queued segments do not carry the bytes handed to SendData")
	}
}
