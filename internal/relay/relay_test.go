package relay

import (
	"net/netip"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/tcpsm"
)

func newClient(t *testing.T) *TCPClient {
	t.Helper()
	src := netip.MustParseAddrPort("10.0.0.2:40001")
	dst := netip.MustParseAddrPort("93.184.216.34:443")
	syn := packet.TCPPacket(src, dst, packet.FlagSYN, 100, 0, 65535, nil, nil)
	sm, err := tcpsm.New(syn, 7, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	return NewTCPClient(packet.Flow(syn), sm, 123)
}

func TestWriteBufferFIFO(t *testing.T) {
	c := newClient(t)
	c.EnqueueWrite([]byte("first"), nil)
	c.EnqueueWrite([]byte("second"), nil)
	if !c.PendingWrites() {
		t.Fatal("no pending writes")
	}
	bufs := c.TakeWrites()
	if len(bufs) != 2 || string(bufs[0].Data) != "first" || string(bufs[1].Data) != "second" {
		t.Errorf("bufs: %q", bufs)
	}
	if c.PendingWrites() {
		t.Error("buffer not drained")
	}
	if got := c.TakeWrites(); len(got) != 0 {
		t.Errorf("second take: %q", got)
	}
}

func TestHalfCloseFlag(t *testing.T) {
	c := newClient(t)
	if c.HalfCloseRequested() {
		t.Fatal("fresh client half-closed")
	}
	c.RequestHalfClose()
	if !c.HalfCloseRequested() {
		t.Fatal("half close lost")
	}
}

func TestMarkRemovedIdempotent(t *testing.T) {
	c := newClient(t)
	if c.Removed() {
		t.Fatal("fresh client removed")
	}
	if !c.MarkRemoved() {
		t.Fatal("first MarkRemoved returned false")
	}
	if c.MarkRemoved() {
		t.Fatal("second MarkRemoved returned true (double removal)")
	}
	if !c.Removed() {
		t.Fatal("not removed after MarkRemoved")
	}
}

func TestDefaultsUnmapped(t *testing.T) {
	c := newClient(t)
	if uid, app := c.AppInfo(); uid != -1 || app != "unknown" {
		t.Errorf("defaults: uid=%d app=%q", uid, app)
	}
	if c.SYNAt != 123 {
		t.Errorf("SYNAt: %d", c.SYNAt)
	}
}

func TestConcurrentEnqueueAndTake(t *testing.T) {
	c := newClient(t)
	var wg sync.WaitGroup
	total := 0
	var mu sync.Mutex
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.EnqueueWrite([]byte{byte(i)}, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 600; i++ {
			bufs := c.TakeWrites()
			mu.Lock()
			for _, b := range bufs {
				total += len(b.Data)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	for _, b := range c.TakeWrites() {
		total += len(b.Data)
	}
	if total != 500 {
		t.Errorf("bytes accounted: %d", total)
	}
}

// TestWriteBufferSteadyStateAllocFree pins the flush cycle every echo
// runs — enqueue, take, write, release — at zero allocations once the
// backing slice exists, and checks a released slice pins neither the
// payload nor its tunnel buffer.
func TestWriteBufferSteadyStateAllocFree(t *testing.T) {
	c := newClient(t)
	buf := []byte("tunnel payload")
	data := buf[7:]
	cycle := func() []Write {
		c.EnqueueWrite(data, buf)
		bufs := c.TakeWrites()
		if len(bufs) != 1 || &bufs[0].Data[0] != &data[0] || &bufs[0].Buf[0] != &buf[0] {
			t.Fatalf("took %q", bufs)
		}
		c.ReleaseWrites(bufs)
		return bufs
	}
	if released := cycle(); released[0].Data != nil || released[0].Buf != nil {
		t.Error("released slice still references its payload")
	}
	if allocs := testing.AllocsPerRun(1000, func() { cycle() }); allocs != 0 {
		t.Errorf("enqueue/take/release allocs/op = %v, want 0", allocs)
	}
}
