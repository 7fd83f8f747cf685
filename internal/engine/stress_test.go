package engine_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/phonestack"
)

// Concurrency stress for the sharded engine core, meant to run under
// `go test -race`: multiple injector goroutines flood the engine with
// connections and data while other goroutines hammer the snapshot APIs
// (Stats, ActiveClients, AppTraffic) and Stop lands mid-flood. Run at
// one worker and at two on a tiny ring — in-flight packets outnumber
// its slots, so the per-packet reader parks on a full ring (the
// wake-before-park backpressure path) and Stop can land while it is
// parked — and at four workers on the default ring.

func TestEngineStressSingleWorker(t *testing.T) {
	engine.SetRingSize(t, 8)
	stressEngine(t, 1)
}
func TestEngineStressFourWorkers(t *testing.T) { stressEngine(t, 4) }
func TestEngineStressTinyRing(t *testing.T) {
	engine.SetRingSize(t, 8)
	stressEngine(t, 2)
}

func stressEngine(t *testing.T, workers int) {
	cfg := engine.Default()
	cfg.Workers = workers
	tb := newTestbed(t, cfg)
	if got := tb.eng.Workers(); got != workers {
		t.Fatalf("Workers() = %d, want %d", got, workers)
	}

	const (
		injectors    = 6
		connsPerGoro = 5
	)
	var (
		wg        sync.WaitGroup
		relayed   atomic.Int64
		snapshots atomic.Int64
		liveConns sync.Map // *phonestack.Conn -> struct{}
	)

	// Injectors: real app connections doing an echo each. Errors are
	// tolerated once Stop has landed — the point is that nothing races
	// or deadlocks, not that every late connection succeeds. Open
	// connections are tracked so the shutdown sweep below can abort the
	// ones whose echo the Stop cut off mid-flight (the app-side Read
	// has no deadline, exactly like a real socket without SO_RCVTIMEO).
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < connsPerGoro; i++ {
				conn, err := tb.phone.Connect(uidApp, tb.server, 2*time.Second)
				if err != nil {
					return
				}
				liveConns.Store(conn, struct{}{})
				msg := []byte(fmt.Sprintf("stress-%d", i))
				if _, err := conn.Write(msg); err == nil {
					buf := make([]byte, len(msg))
					if conn.ReadFull(buf) == nil {
						relayed.Add(1)
					}
				}
				conn.Close()
				liveConns.Delete(conn)
			}
		}()
	}

	// Snapshotters: concurrent reads of every aggregate view. The small
	// sleep keeps them from starving the relay on a single-core host —
	// the race detector sees the interleavings either way.
	stopSnaps := make(chan struct{})
	var snapWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stopSnaps:
					return
				default:
				}
				st := tb.eng.Stats()
				if st.Established > st.SYNs {
					t.Error("established exceeds SYNs")
					return
				}
				tb.eng.ActiveClients()
				tb.eng.AppTraffic()
				snapshots.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	// Let the flood make progress, then Stop while injectors are still
	// going — the shutdown path must coexist with live traffic.
	deadline := time.Now().Add(5 * time.Second)
	for relayed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tb.eng.Stop()

	// Abort connections orphaned by the Stop (their server data will
	// never arrive, and the app-side Read would park forever). A late
	// connection may establish after a sweep, so keep sweeping until
	// every injector has exited.
	injectorsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(injectorsDone)
	}()
sweep:
	for {
		liveConns.Range(func(k, _ any) bool {
			k.(*phonestack.Conn).Abort()
			return true
		})
		select {
		case <-injectorsDone:
			break sweep
		case <-time.After(50 * time.Millisecond):
		}
	}
	close(stopSnaps)
	snapWG.Wait()

	if relayed.Load() == 0 {
		t.Fatal("no echoes relayed before Stop")
	}
	if snapshots.Load() == 0 {
		t.Fatal("no snapshots taken")
	}
	if tb.eng.ActiveClients() != 0 {
		t.Errorf("%d clients survived Stop", tb.eng.ActiveClients())
	}
}

// TestWorkersRelayCorrectly runs the standard echo through the sharded
// pipeline: multi-worker mode must relay bytes exactly like the
// paper-faithful engine.
func TestWorkersRelayCorrectly(t *testing.T) {
	cfg := engine.Default()
	cfg.Workers = 4
	tb := newTestbed(t, cfg)
	const n = 8
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			msg := []byte(fmt.Sprintf("sharded hello %d", i))
			if _, err := conn.Write(msg); err != nil {
				done <- err
				return
			}
			buf := make([]byte, len(msg))
			if err := conn.ReadFull(buf); err != nil {
				done <- err
				return
			}
			if string(buf) != string(msg) {
				done <- fmt.Errorf("echo mismatch: %q", buf)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= n }, "records")
	st := tb.eng.Stats()
	if st.Established < n {
		t.Errorf("established %d < %d", st.Established, n)
	}
}

// TestWorkersEventDrivenConnect runs the sharded pipeline with the
// pre-§2.4 non-blocking connect: OpConnect completion is observed
// through the selector and routed to the flow's pinned worker, which
// swaps the key attachment from eventConnect to the client.
func TestWorkersEventDrivenConnect(t *testing.T) {
	cfg := engine.Default()
	cfg.Workers = 4
	cfg.BlockingConnectMeasure = false
	tb := newTestbed(t, cfg)
	const n = 8
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			msg := []byte("event-driven sharded")
			if _, err := conn.Write(msg); err != nil {
				done <- err
				return
			}
			buf := make([]byte, len(msg))
			done <- conn.ReadFull(buf)
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= n }, "records")
}

// TestAdaptivePollRelaysEndToEnd drives ReadPollAdaptive through a real
// connection: after the fix the burst window must not break relaying,
// and the engine still measures.
func TestAdaptivePollRelaysEndToEnd(t *testing.T) {
	cfg := engine.Default()
	cfg.ReadMode = engine.ReadPollAdaptive
	cfg.PollInterval = 50 * time.Millisecond
	tb := newTestbed(t, cfg)
	conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
	if err != nil {
		t.Fatalf("connect through adaptive poller: %v", err)
	}
	defer conn.Close()
	msg := []byte("adaptive burst")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "record")
}
