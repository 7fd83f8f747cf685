package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// newWorkloadBed builds a bed with one fast echo server behind a
// domain, on a default simulated phone's links, with the workloads'
// default app installed.
func newWorkloadBed(t *testing.T) *testbed.Bed {
	t.Helper()
	bed, err := testbed.New(testbed.Options{
		Link:    netsim.LinkParams{Delay: 15 * time.Millisecond},
		DNSLink: &netsim.LinkParams{Delay: 7500 * time.Microsecond},
		Servers: []netsim.ServerSpec{testbed.EchoServer("site.example.com", "198.51.100.1:443", 4*time.Millisecond)},
	})
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	t.Cleanup(bed.Close)
	bed.InstallApp(10001, "com.example.app")
	return bed
}

// TestWorkloadGeneratorsProduceMeasurements runs every canned
// generator against a fast echo server and asserts it actually drives
// traffic: TCP measurements accumulate, and generators visiting a
// domain site also produce DNS measurements.
func TestWorkloadGeneratorsProduceMeasurements(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			bed := newWorkloadBed(t)
			wl, err := workloadByName(name, workloadOptions{
				Sites:    []string{"site.example.com:443"},
				Duration: 1200 * time.Millisecond,
				Seed:     7,
			})
			if err != nil {
				t.Fatalf("workloadByName: %v", err)
			}
			if err := wl(context.Background(), bed); err != nil {
				t.Fatalf("workload: %v", err)
			}
			tcp := len(bed.Store.Kind(measure.KindTCP))
			if tcp < 2 {
				t.Fatalf("workload %q produced %d TCP measurements, want >= 2", name, tcp)
			}
			if dns := len(bed.Store.Kind(measure.KindDNS)); dns < 1 {
				t.Fatalf("workload %q produced no DNS measurements for a domain site", name)
			}
			// The traffic must be attributed to the installed app.
			for _, m := range bed.Store.Kind(measure.KindTCP) {
				if m.App != "com.example.app" {
					t.Fatalf("measurement attributed to %q, want com.example.app", m.App)
				}
			}
		})
	}
}

// TestWorkloadByNameUnknown pins the registry error path.
func TestWorkloadByNameUnknown(t *testing.T) {
	if _, err := workloadByName("doomscroll", workloadOptions{Sites: []string{"a:1"}}); err == nil {
		t.Fatal("workloadByName accepted an unknown name")
	}
}

// TestWorkloadRespectsContext pins that cancellation stops a
// generator promptly and surfaces as the context error.
func TestWorkloadRespectsContext(t *testing.T) {
	bed := newWorkloadBed(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wl, err := workloadByName("web", workloadOptions{
		Sites:    []string{"site.example.com:443"},
		Duration: time.Hour, // the deadline must come from ctx, not this
	})
	if err != nil {
		t.Fatalf("workloadByName: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- wl(ctx, bed) }()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("workload returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("workload did not stop after cancellation")
	}
}
