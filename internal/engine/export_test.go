package engine

import (
	"testing"
	"time"
	"weak"

	"repro/internal/packet"
	"repro/internal/relay"
)

// SetRingSize shrinks every worker ring built during t, so in-flight
// packets outnumber its slots and the reader's backpressure path runs.
func SetRingSize(t testing.TB, n int) { setForTest(t, &ringSize, n) }

// SetUDPPoolSize sets the UDP relay's pool size for engines built
// during t.
func SetUDPPoolSize(t testing.TB, n int) { setForTest(t, &udpPoolSize, n) }

// SetUDPSessionIdle sets the UDP session lifetime for engines built
// during t.
func SetUDPSessionIdle(t testing.TB, d time.Duration) { setForTest(t, &udpSessionIdle, d) }

// setForTest writes v to *p and restores the old value when t ends.
// Engine tests do not run in parallel, so nothing else reads *p
// meanwhile.
func setForTest[T any](t testing.TB, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// WeakFlows returns a weak pointer to every TCP client in e's flow
// table, so a test can check that a finished flow's state is freed.
func WeakFlows(e *Engine) []weak.Pointer[relay.TCPClient] {
	var out []weak.Pointer[relay.TCPClient]
	e.flows.ForEach(func(_ packet.FlowKey, cl *relay.TCPClient) {
		out = append(out, weak.Make(cl))
	})
	return out
}
