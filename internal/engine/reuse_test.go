package engine_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestSharedReadBufferKeepsFlowsApart is the reuse-safety test for the
// worker-owned socket read buffer: more flows than workers, so at least
// two are pinned to one worker and drain their sockets through the same
// 16 KiB buffer, each echoing a 256 KiB body of its own byte pattern.
// A segment emitted after its bytes were overwritten by the next read
// would arrive at the app carrying another flow's pattern.
func TestSharedReadBufferKeepsFlowsApart(t *testing.T) {
	const body = 256 * 1024
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = workers
			tb := newTestbed(t, cfg)
			flows := workers + 1
			errs := make(chan error, flows)
			for f := 0; f < flows; f++ {
				go func(f int) {
					conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
					if err != nil {
						errs <- fmt.Errorf("flow %d connect: %w", f, err)
						return
					}
					defer conn.Close()
					payload := make([]byte, body)
					for i := range payload {
						payload[i] = byte(i*(2*f+1) + f)
					}
					go func() { _, _ = conn.Write(payload) }()
					got := make([]byte, body)
					if err := conn.ReadFull(got); err != nil {
						errs <- fmt.Errorf("flow %d read: %w", f, err)
						return
					}
					for i := range got {
						if got[i] != payload[i] {
							errs <- fmt.Errorf("flow %d corrupted at byte %d: got %#x want %#x", f, i, got[i], payload[i])
							return
						}
					}
					errs <- nil
				}(f)
			}
			deadline := time.After(60 * time.Second)
			for f := 0; f < flows; f++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("flows stalled (%d/%d finished)", f, flows)
				}
			}
		})
	}
}

// TestEchoAllocsBounded is the engine-level allocation pin: one
// established flow on a loopback network, 1,000 16-byte echo rounds,
// and the process-wide malloc count per round — engine plus the
// phone-stack and netsim fixture, the quantity bench/ reports as
// go.allocs_per_op. An echo allocates nothing: tcpsm, the phone stack
// and netsim reuse their segments and receive buffers, the TUN device
// copies each of the echo's four packets into a pooled buffer that its
// consumer releases, and the selector reuses the slice it returns.
// The bound leaves room only for a pool refill after a GC has emptied
// a sync.Pool, which costs a fraction of an allocation per echo; any
// whole allocation per packet fails it.
func TestEchoAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops encode buffers at random under the race detector")
	}
	const rounds, bound = 1000, 0.1
	tb := newTestbed(t, engine.Default())
	tb.net.SetLoopback(true)
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	msg, got := []byte("sixteen byte msg"), make([]byte, 16)
	echo := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(msg); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := conn.ReadFull(got); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	echo(200) // fill the encode pool and grow every queue to its working size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	echo(rounds)
	runtime.ReadMemStats(&after)
	perEcho := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.3f allocations per echo", perEcho)
	if perEcho > bound {
		t.Errorf("%.3f allocations per echo, want <= %.1f", perEcho, bound)
	}
}
