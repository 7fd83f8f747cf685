package engine_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// TestEngineMetricsTrackStats drives real traffic through the relay
// and checks the scraped registry agrees with the Stats() snapshot —
// the metrics layer is a second window onto the same atomics, so the
// two must never tell different stories.
func TestEngineMetricsTrackStats(t *testing.T) {
	cfg := engine.Default()
	cfg.Workers = 4
	tb := newTestbed(t, cfg)
	r := metrics.NewRegistry()
	tb.eng.RegisterMetrics(r)

	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	msg := []byte("metrics probe")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatalf("echo: %v", err)
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool {
		return tb.eng.Stats().TCPMeasurements >= 1
	}, "a TCP measurement")

	st := tb.eng.Stats()
	snap := r.Gather()
	for name, want := range map[string]float64{
		"mopeye_engine_syns_total":             float64(st.SYNs),
		"mopeye_engine_established_total":      float64(st.Established),
		"mopeye_engine_tcp_measurements_total": float64(st.TCPMeasurements),
		"mopeye_engine_workers":                4,
	} {
		got, ok := snap.Get(name)
		if !ok {
			t.Fatalf("family %s missing from snapshot", name)
		}
		// Counters may still be moving (the connection teardown races
		// the gather); Stats() was taken first, so >= is the invariant.
		if got < want {
			t.Errorf("%s = %v, want >= %v (Stats snapshot)", name, got, want)
		}
	}
	if v, ok := snap.Get("mopeye_engine_packets_from_tun_total"); !ok || v == 0 {
		t.Errorf("packets_from_tun_total = %v ok=%v, want nonzero", v, ok)
	}

	// Structural checks: 4 workers means 4 ring samples and 4 selector
	// samples.
	var expo strings.Builder
	if err := r.WritePrometheus(&expo); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, fam := range []string{"mopeye_engine_ring_occupancy", "mopeye_engine_ring_capacity", "mopeye_engine_selector_selects_total", "mopeye_engine_selector_keys"} {
		if n := strings.Count(expo.String(), "\n"+fam+"{"); n != 4 {
			t.Errorf("%s has %d samples, want 4 (one per worker)\n%s", fam, n, expo.String())
		}
	}
	if v, ok := snap.Get("mopeye_engine_ring_capacity", metrics.L("worker", "0")); !ok || v == 0 {
		t.Errorf("ring_capacity{worker=0} = %v ok=%v, want nonzero", v, ok)
	}
}

// TestEngineMetricsSingleWorker pins the labeling at Workers=1: the one
// worker is worker 0 like any other, with its selector and its ring.
func TestEngineMetricsSingleWorker(t *testing.T) {
	tb := newTestbed(t, engine.Default())
	r := metrics.NewRegistry()
	tb.eng.RegisterMetrics(r)

	snap := r.Gather()
	if _, ok := snap.Get("mopeye_engine_selector_keys", metrics.L("selector", "0")); !ok {
		t.Error("single-worker engine should expose selector_keys{selector=\"0\"}")
	}
	if v, ok := snap.Get("mopeye_engine_ring_capacity", metrics.L("worker", "0")); !ok || v == 0 {
		t.Errorf("ring_capacity{worker=0} = %v ok=%v, want nonzero", v, ok)
	}
	for _, f := range snap {
		switch f.Name {
		case "mopeye_engine_ring_occupancy", "mopeye_engine_selector_keys":
			if len(f.Samples) != 1 {
				t.Errorf("single-worker engine has %d %s samples, want 1", len(f.Samples), f.Name)
			}
		}
	}
}
