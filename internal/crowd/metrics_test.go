package crowd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestServerMetricsExposition drives uploads (including a duplicate)
// through a spooled server and checks the scraped exposition carries
// the ISSUE's required live facts: upload counters, dedup hits, spool
// footprint, per-shard skew, retain mode, and sketched RTT summaries.
func TestServerMetricsExposition(t *testing.T) {
	s, err := NewServer(ServerOptions{SpoolDir: t.TempDir(), ExposeMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	b1 := srvBatch("p1", "p1/k/1", 1, srvRec("", "com.app", 10), srvRec("", "com.app", 20))
	b2 := srvBatch("p2", "p2/k/1", 1, srvRec("", "com.other", 30))
	if resp := postBatch(t, ts, "", b1, "p1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload b1: %s", resp.Status)
	}
	if resp := postBatch(t, ts, "", b2, "p2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload b2: %s", resp.Status)
	}
	if resp := postBatch(t, ts, "", b1, "p1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("redeliver b1: %s", resp.Status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	raw, _ := io.ReadAll(resp.Body)
	expo := string(raw)

	for line, why := range map[string]string{
		"mopeye_collector_uploads_total 2":    "two accepted batches",
		"mopeye_collector_records_total 3":    "three records",
		"mopeye_collector_dedup_hits_total 1": "one absorbed redelivery",
		"mopeye_collector_dedup_keys 2":       "two idempotency keys",
		"mopeye_collector_retain_records 1":   "retention defaults on",
	} {
		if !strings.Contains(expo, line+"\n") {
			t.Errorf("missing %q (%s) in:\n%s", line, why, expo)
		}
	}
	if !strings.Contains(expo, `mopeye_collector_rtt_ms{net="TCP/`) {
		t.Errorf("no per-net RTT summary in:\n%s", expo)
	}
	if !strings.Contains(expo, "mopeye_collector_spool_bytes ") ||
		strings.Contains(expo, "mopeye_collector_spool_bytes 0\n") {
		t.Errorf("spool_bytes missing or zero with a live spool:\n%s", expo)
	}

	// Per-shard skew: the shard_records samples sum to records_total.
	snap := s.Metrics()
	sum := 0.0
	for _, f := range snap {
		if f.Name != "mopeye_collector_shard_records" {
			continue
		}
		if len(f.Samples) != ingestShards {
			t.Errorf("shard_records has %d samples, want %d", len(f.Samples), ingestShards)
		}
		for _, sm := range f.Samples {
			sum += sm.Value
		}
	}
	if sum != 3 {
		t.Errorf("shard_records sum = %v, want 3", sum)
	}
}

// TestMetricsTokenExemption: with a token configured, /metrics (like
// /healthz) answers unauthenticated scrapers while the data plane
// stays gated.
func TestMetricsTokenExemption(t *testing.T) {
	s, err := NewServer(ServerOptions{Token: "sesame", ExposeMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unauthenticated /metrics = %s, want 200", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated /v1/stats = %s, want 401", resp.Status)
	}
}

// TestMetricsScrapeDuringUploads hammers uploads while scraping — the
// -race half of the /metrics coverage at the collector layer.
func TestMetricsScrapeDuringUploads(t *testing.T) {
	s, err := NewServer(ServerOptions{ExposeMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				dev := fmt.Sprintf("p%d-%d", g, i)
				b := srvBatch(dev, fmt.Sprintf("%s/k", dev), 1, srvRec("", "com.app", float64(i+1)))
				postBatch(t, ts, "", b, dev)
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := s.WriteMetrics(&sb); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	wg.Wait()
	if v, ok := s.Metrics().Get("mopeye_collector_records_total"); !ok || v != 100 {
		t.Fatalf("records_total = %v ok=%v, want 100", v, ok)
	}
}
