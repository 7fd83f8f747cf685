package tun

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func newDev() *Device { return New(clock.NewReal(), 16) }

func TestNonBlockingReadEmptyReturnsWouldBlock(t *testing.T) {
	d := newDev()
	defer d.Close()
	if _, err := d.Read(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("got %v, want ErrWouldBlock", err)
	}
}

func TestBlockingReadWaitsForPacket(t *testing.T) {
	d := newDev()
	defer d.Close()
	d.SetBlocking(true)
	got := make(chan []byte, 1)
	go func() {
		pkt, err := d.Read()
		if err != nil {
			close(got)
			return
		}
		got <- pkt
	}()
	time.Sleep(5 * time.Millisecond)
	if err := d.InjectOutbound([]byte{1, 2, 3}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	select {
	case pkt := <-got:
		if len(pkt) != 3 || pkt[0] != 1 {
			t.Errorf("packet: %v", pkt)
		}
	case <-time.After(time.Second):
		t.Fatal("blocking read never returned")
	}
}

func TestDummyPacketReleasesBlockedRead(t *testing.T) {
	d := newDev()
	d.SetBlocking(true)
	released := make(chan struct{})
	go func() {
		_, _ = d.Read()
		close(released)
	}()
	time.Sleep(2 * time.Millisecond)
	// The §3.1 shutdown trick: a dummy packet unblocks the reader.
	_ = d.InjectOutbound([]byte{0})
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("dummy packet did not release read")
	}
}

func TestCloseWakesBlockedRead(t *testing.T) {
	d := newDev()
	d.SetBlocking(true)
	errCh := make(chan error, 1)
	go func() {
		_, err := d.Read()
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	d.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake reader")
	}
}

func TestWriteReadInbound(t *testing.T) {
	d := newDev()
	defer d.Close()
	if err := d.Write([]byte{9, 9}); err != nil {
		t.Fatalf("write: %v", err)
	}
	pkt, err := d.ReadInbound()
	if err != nil {
		t.Fatalf("read inbound: %v", err)
	}
	if len(pkt) != 2 || pkt[0] != 9 {
		t.Errorf("packet: %v", pkt)
	}
}

func TestMTUEnforced(t *testing.T) {
	d := newDev()
	defer d.Close()
	big := make([]byte, DefaultMTU+1)
	if err := d.Write(big); !errors.Is(err, ErrTooBig) {
		t.Errorf("write: %v", err)
	}
	if err := d.InjectOutbound(big); !errors.Is(err, ErrTooBig) {
		t.Errorf("inject: %v", err)
	}
}

func TestPerDeviceMTU(t *testing.T) {
	d := newDev()
	defer d.Close()
	if got := d.MTU(); got != DefaultMTU {
		t.Fatalf("MTU = %d, want %d", got, DefaultMTU)
	}
	if err := d.Write(make([]byte, DefaultMTU)); err != nil {
		t.Errorf("write at the MTU: %v", err)
	}
	if err := d.Write(make([]byte, DefaultMTU+1)); !errors.Is(err, ErrTooBig) {
		t.Errorf("write over the MTU: %v", err)
	}
	// The interface seam: both backends satisfy it.
	var _ Interface = d
}

func TestQueueOverflowDrops(t *testing.T) {
	d := New(clock.NewReal(), 4)
	defer d.Close()
	for i := 0; i < 10; i++ {
		_ = d.InjectOutbound([]byte{byte(i)})
	}
	// The queue kept the first four packets and dropped the rest.
	for i := 0; i < 4; i++ {
		if pkt, err := d.Read(); err != nil || pkt[0] != byte(i) {
			t.Fatalf("read %d: %v, %v", i, pkt, err)
		}
	}
	if _, err := d.Read(); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("read past the queued four: %v, want ErrWouldBlock", err)
	}
	if d.Stats().Drops != 6 {
		t.Errorf("drops = %d, want 6", d.Stats().Drops)
	}
}

func TestFIFOOrder(t *testing.T) {
	d := newDev()
	defer d.Close()
	for i := 0; i < 10; i++ {
		_ = d.InjectOutbound([]byte{byte(i)})
	}
	d.SetBlocking(true)
	for i := 0; i < 10; i++ {
		pkt, err := d.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if pkt[0] != byte(i) {
			t.Fatalf("order violated at %d: got %d", i, pkt[0])
		}
	}
}

func TestReadDelayAccounting(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	d := New(clk, 16)
	defer d.Close()
	_ = d.InjectOutbound([]byte{1})
	clk.Advance(5 * time.Millisecond)
	if _, err := d.Read(); err != nil {
		t.Fatalf("read: %v", err)
	}
	s := d.Stats()
	if s.PacketsOut != 1 || s.ReadDelaySum != 5*time.Millisecond {
		t.Errorf("packets %d, read delay sum %v; want 1, 5ms", s.PacketsOut, s.ReadDelaySum)
	}
}

func TestWriteCostCharged(t *testing.T) {
	clk := clock.NewReal()
	d := New(clk, 16)
	defer d.Close()
	d.SetWriteCost(func(r *rand.Rand) time.Duration { return 3 * time.Millisecond }, 1)
	start := time.Now()
	if err := d.Write([]byte{1}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Error("write cost was not charged")
	}
}

func TestWriteContentionSerialised(t *testing.T) {
	clk := clock.NewReal()
	d := New(clk, 64)
	defer d.Close()
	d.SetWriteCost(func(r *rand.Rand) time.Duration { return 2 * time.Millisecond }, 1)
	const writers = 5
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.Write([]byte{1})
		}()
	}
	wg.Wait()
	// Five serialised 2 ms writes take at least ~10 ms; this is the
	// contention that motivates queueWrite (§3.5.1).
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Errorf("writes completed in %v; contention not serialised", elapsed)
	}
}

func TestReadBatchDrainsBurstInOrder(t *testing.T) {
	d := newDev()
	defer d.Close()
	for i := 0; i < 10; i++ {
		_ = d.InjectOutbound([]byte{byte(i)})
	}
	d.SetBlocking(true)
	batch := make([][]byte, 4)
	var got []byte
	for len(got) < 10 {
		n, err := d.ReadBatch(batch)
		if err != nil {
			t.Fatalf("batch read: %v", err)
		}
		for i := 0; i < n; i++ {
			got = append(got, batch[i][0])
		}
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("order violated at %d: got %d", i, b)
		}
	}
	s := d.Stats()
	if s.PacketsOut != 10 {
		t.Errorf("stats after batch reads: %+v", s)
	}
}

func TestReadBatchNonBlockingEmpty(t *testing.T) {
	d := newDev()
	defer d.Close()
	batch := make([][]byte, 8)
	if _, err := d.ReadBatch(batch); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("got %v, want ErrWouldBlock", err)
	}
}

func TestReadBatchBlockingWaitsForFirstOnly(t *testing.T) {
	d := newDev()
	defer d.Close()
	d.SetBlocking(true)
	got := make(chan int, 1)
	go func() {
		batch := make([][]byte, 8)
		n, err := d.ReadBatch(batch)
		if err != nil {
			got <- -1
			return
		}
		got <- n
	}()
	time.Sleep(5 * time.Millisecond)
	_ = d.InjectOutbound([]byte{1})
	select {
	case n := <-got:
		// The burst returns with whatever was queued when the first
		// packet arrived; it never waits to fill the batch.
		if n < 1 {
			t.Fatalf("batch read returned %d", n)
		}
	case <-time.After(time.Second):
		t.Fatal("blocking batch read never returned")
	}
}

func TestReadBatchCloseWakes(t *testing.T) {
	d := newDev()
	d.SetBlocking(true)
	errCh := make(chan error, 1)
	go func() {
		_, err := d.ReadBatch(make([][]byte, 4))
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	d.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake batch reader")
	}
}

func TestWriteBatchDeliversInOrder(t *testing.T) {
	d := newDev()
	defer d.Close()
	pkts := [][]byte{{1}, {2, 2}, {3, 3, 3}}
	n, err := d.WriteBatch(pkts)
	if err != nil || n != 3 {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	for i := 0; i < 3; i++ {
		pkt, err := d.ReadInbound()
		if err != nil {
			t.Fatalf("read inbound %d: %v", i, err)
		}
		if len(pkt) != i+1 || pkt[0] != byte(i+1) {
			t.Errorf("packet %d: %v", i, pkt)
		}
	}
	s := d.Stats()
	if s.PacketsIn != 3 {
		t.Errorf("stats after batch write: %+v", s)
	}
}

func TestWriteBatchSkipsOversizedDeliversRest(t *testing.T) {
	d := newDev()
	defer d.Close()
	big := make([]byte, DefaultMTU+1)
	n, err := d.WriteBatch([][]byte{{1}, big, {2}})
	if !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
	// Packets fail independently, like a loop of per-packet Writes: the
	// oversized one is skipped, the others still arrive in order.
	if n != 2 {
		t.Errorf("delivered %d packets, want 2", n)
	}
	for _, want := range []byte{1, 2} {
		pkt, rerr := d.ReadInbound()
		if rerr != nil {
			t.Fatalf("read inbound: %v", rerr)
		}
		if pkt[0] != want {
			t.Errorf("got packet %v, want [%d]", pkt, want)
		}
	}
}

func TestWriteBatchChargesCostPerPacket(t *testing.T) {
	clk := clock.NewReal()
	d := New(clk, 16)
	defer d.Close()
	d.SetWriteCost(func(r *rand.Rand) time.Duration { return 2 * time.Millisecond }, 1)
	start := time.Now()
	if _, err := d.WriteBatch([][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	// Batching amortises queue locks, not the modelled kernel work:
	// three packets still cost three writes' worth of syscall time.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("batch of 3 cost %v, want ≥ ~6ms (per-packet cost model)", elapsed)
	}
}

func TestWriteBatchOverflowDrops(t *testing.T) {
	d := New(clock.NewReal(), 2)
	defer d.Close()
	pkts := make([][]byte, 5)
	for i := range pkts {
		pkts[i] = []byte{byte(i)}
	}
	if _, err := d.WriteBatch(pkts); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	if d.Stats().Drops != 3 {
		t.Errorf("drops = %d, want 3", d.Stats().Drops)
	}
	// The queue kept the first two packets: after them a closed device
	// has nothing left to deliver.
	for i := 0; i < 2; i++ {
		if pkt, err := d.ReadInbound(); err != nil || pkt[0] != byte(i) {
			t.Fatalf("inbound read %d: %v, %v", i, pkt, err)
		}
	}
	d.Close()
	if _, err := d.ReadInbound(); !errors.Is(err, ErrClosed) {
		t.Errorf("inbound read past the queued two: %v, want ErrClosed", err)
	}
}

func TestAndroidWriteCostDistribution(t *testing.T) {
	f := AndroidWriteCost()
	r := rand.New(rand.NewSource(42))
	over1ms := 0
	const n = 10000
	for i := 0; i < n; i++ {
		c := f(r)
		if c <= 0 {
			t.Fatal("non-positive write cost")
		}
		if c > time.Millisecond {
			over1ms++
		}
	}
	frac := float64(over1ms) / n
	// §3.5.1 observed 42/1244 (~3.4%) large overheads for directWrite.
	if frac < 0.005 || frac > 0.10 {
		t.Errorf("spike fraction %.3f outside plausible band", frac)
	}
}
