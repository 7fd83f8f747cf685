package engine_test

import (
	"errors"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/phonestack"
)

// TestFinishedFlowIsCollectable relays one echo flow, closes it from
// both ends, stops the engine, and checks that the flow's TCP client is
// garbage. Two holders used to keep every finished flow alive: netsim's
// mailbox registry (the mailbox's readability callback reaches the
// selection key, whose attachment is the client) and the selector's
// drained ready queue (its backing array kept the last keys it held).
// The barriers are events: the app reads the server's FIN, and Stop
// joins every engine thread.
//
// A finished flow must leave nothing reachable however the engine's
// threads interleave, so the test repeats under the race detector.
//
//race:repeat 20
func TestFinishedFlowIsCollectable(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	oneShot := netip.MustParseAddrPort("93.184.216.35:80")
	tb.net.HandleTCP(oneShot, func(c *netsim.Conn) {
		defer c.Close()
		buf := make([]byte, 64)
		if n, err := c.Read(buf); err == nil {
			_, _ = c.Write(buf[:n])
		}
	})
	conn, err := tb.phone.Connect(uidApp, oneShot, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	msg := []byte("one echo, then FIN")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if err := conn.ReadFull(got); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	flows := engine.WeakFlows(tb.eng)
	if len(flows) != 1 {
		t.Fatalf("%d flows in the table, want 1", len(flows))
	}
	if _, err := conn.Read(got); !errors.Is(err, phonestack.ErrEOF) {
		t.Fatalf("read after the echo: %v, want EOF", err)
	}
	conn.Close()
	tb.eng.Stop()

	runtime.GC()
	runtime.GC()
	if flows[0].Value() != nil {
		t.Fatal("the finished flow's TCP client is still reachable after Stop")
	}
}
