package engine

import (
	"testing"
	"time"
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
