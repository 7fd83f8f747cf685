package engine_test

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/procnet"
	"repro/internal/sockets"
)

// Stop is a barrier for the socket-connect threads: once it returns,
// every connect the app saw succeed has its record, with no waiting for
// records beforehand. Each parse costs 5 ms here, so the records land
// well after the apps' connects return.
func TestStopCompletesRecords(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = workers
			tb := newAblationBed(t, cfg, sockets.CostModel{}, procnet.CostModel{Base: 5 * time.Millisecond})
			const n = 12
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			tb.eng.Stop()
			recs := tb.eng.Store().Kind(measure.KindTCP)
			if len(recs) != n {
				t.Fatalf("%d TCP records at Stop, want %d", len(recs), n)
			}
			for _, r := range recs {
				if r.App != appName {
					t.Errorf("record attributed to %q, want %q", r.App, appName)
				}
			}
		})
	}
}

// connectThreads counts the engine's socket-connect threads.
func connectThreads() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Engine).socketConnectBlocking(")
}

// Stop never waits on a dial in progress, and the flow it interrupts
// records nothing when its connect returns after Stop.
func TestStopDoesNotWaitForDial(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	slow := netip.MustParseAddrPort("198.51.100.9:80")
	const rtt = time.Second
	tb.net.HandleTCP(slow, netsim.EchoHandler())
	tb.net.SetLink(slow.Addr(), netsim.LinkParams{Delay: rtt / 2})

	go func() { _, _ = tb.phone.Connect(uidApp, slow, 5*time.Second) }()
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Stats().SYNs == 1 }, "the slow flow's SYN")

	start := time.Now()
	tb.eng.Stop()
	if d := time.Since(start); d > rtt/4 {
		t.Fatalf("Stop took %v with a dial in flight to a %v-RTT server", d, rtt)
	}
	waitFor(t, 5*time.Second, func() bool { return connectThreads() == 0 }, "the interrupted connect to return")
	if st := tb.eng.Stats(); st.Established != 0 || st.TCPMeasurements != 0 || tb.eng.Store().Len() != 0 {
		t.Fatalf("interrupted flow left %d established, %d TCP measurements, %d records",
			st.Established, st.TCPMeasurements, tb.eng.Store().Len())
	}
}
