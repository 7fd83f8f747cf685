package metrics

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sketch"
)

// TestExpositionGolden pins the rendered output byte for byte: family
// ordering by name, sample ordering by label signature, sorted labels
// inside a sample, summary quantile lines derived from the sketch, and
// no timestamps anywhere.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	var flows, up, down atomic.Uint64
	r.GaugeFunc("test_active_flows", "Open flows.", func() float64 { return float64(flows.Load()) })
	r.CounterFunc("test_packets_total", "Packets seen.", func() float64 { return float64(up.Load()) }, L("dir", "up"))
	r.CounterFunc("test_packets_total", "Packets seen.", func() float64 { return float64(down.Load()) }, L("dir", "down"))
	flows.Store(7)
	up.Add(1500)
	down.Add(42)
	q := r.Quantile("test_rtt_ms", "Per-connection RTT.", 0, L("app", "web"))
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := b.String()

	want := strings.Join([]string{
		`# HELP test_active_flows Open flows.`,
		`# TYPE test_active_flows gauge`,
		`test_active_flows 7`,
		`# HELP test_packets_total Packets seen.`,
		`# TYPE test_packets_total counter`,
		`test_packets_total{dir="down"} 42`,
		`test_packets_total{dir="up"} 1500`,
		`# HELP test_rtt_ms Per-connection RTT.`,
		`# TYPE test_rtt_ms summary`,
		`test_rtt_ms{app="web",quantile="0.5"} ` + firstLineValue(t, got, `test_rtt_ms{app="web",quantile="0.5"}`),
		`test_rtt_ms{app="web",quantile="0.95"} ` + firstLineValue(t, got, `test_rtt_ms{app="web",quantile="0.95"}`),
		`test_rtt_ms{app="web",quantile="0.99"} ` + firstLineValue(t, got, `test_rtt_ms{app="web",quantile="0.99"}`),
		`test_rtt_ms_sum{app="web"} 5050`,
		`test_rtt_ms_count{app="web"} 100`,
	}, "\n") + "\n"

	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The quantile values themselves obey the sketch's accuracy bound.
	snap := r.Gather()
	for _, f := range snap {
		if f.Name != "test_rtt_ms" {
			continue
		}
		sk := f.Samples[0].Sketch
		for q, exact := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99} {
			got := sk.Quantile(q)
			if math.Abs(got-exact)/exact > 0.02 {
				t.Errorf("q%.2f = %.2f, want within 2%% of %.0f", q, got, exact)
			}
		}
	}

	// Rendering twice with no traffic in between is byte-identical
	// (determinism is what golden tests downstream rely on).
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if b2.String() != got {
		t.Fatal("second render differs from first with no writes in between")
	}
}

// firstLineValue extracts the value rendered for a series prefix — the
// sketch's estimate is deterministic but not worth hard-coding.
func firstLineValue(t *testing.T, expo, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return strings.TrimPrefix(line, prefix+" ")
		}
	}
	t.Fatalf("no line with prefix %q in:\n%s", prefix, expo)
	return ""
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("esc_total", "", func() float64 { return 1 }, L("path", "a\\b\"c\nd"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\\b\"c\nd"} 1` + "\n"
	if got := b.String(); got != "# TYPE esc_total counter\n"+want {
		t.Fatalf("escaping: got %q", got)
	}
}

func TestRegistrationIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Uint64
	r.CounterFunc("same_total", "h", func() float64 { return float64(a.Load()) }, L("k", "v"))
	r.CounterFunc("same_total", "h", func() float64 { return float64(b.Load()) }, L("k", "v"))
	a.Add(3)
	b.Add(5)
	snap := r.Gather()
	if len(snap) != 1 || len(snap[0].Samples) != 1 {
		t.Fatalf("identical registration made %v, want one family with one sample", snap)
	}
	if v, _ := snap.Get("same_total", L("k", "v")); v != 3 {
		t.Fatalf("value = %v, want 3: the first registration's reading", v)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.GaugeFunc("same_total", "h", func() float64 { return 0 })
}

// TestScrapeUnderConcurrentWrites is the -race half of the coverage:
// the atomics behind every counter and gauge source, and a Quantile,
// written from many goroutines while scrapes, gathers, and late
// registrations run concurrently.
func TestScrapeUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	var c, g atomic.Uint64
	var late [4]atomic.Uint64
	r.CounterFunc("rc_total", "", func() float64 { return float64(c.Load()) })
	r.GaugeFunc("rc_gauge", "", func() float64 { return float64(g.Load()) })
	q := r.Quantile("rc_rtt", "", 0)
	r.CounterFunc("rc_func_total", "", func() float64 { return float64(c.Load()) })
	r.CollectGauges("rc_dyn", "", func() []Sample {
		return []Sample{{Labels: []Label{L("w", "0")}, Value: float64(g.Load())}}
	})

	const perWriter = 2000
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < perWriter; n++ {
				c.Add(1)
				g.Store(uint64(n))
				q.Observe(float64(n%100 + 1))
				if n%64 == 0 {
					// Late registration racing the scrape loop.
					late[id].Add(1)
					r.CounterFunc("rc_late_total", "", func() float64 { return float64(late[id].Load()) },
						L("id", string(rune('a'+id))))
				}
			}
		}(i)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if !strings.Contains(b.String(), "rc_total") {
			t.Fatal("scrape lost a family")
		}
	}
	wg.Wait()

	if v, ok := r.Gather().Get("rc_total"); !ok || v != 4*perWriter {
		t.Fatalf("rc_total = %v ok=%v, want %d", v, ok, 4*perWriter)
	}
}

// TestDynamicCollectors covers the scrape-time registration surface:
// GaugeFunc reads a live value, CollectCounters and CollectSummaries
// produce label sets only known at gather time.
func TestDynamicCollectors(t *testing.T) {
	r := NewRegistry()

	depth := 3.0
	r.GaugeFunc("test_queue_depth", "Live queue depth.", func() float64 { return depth })

	r.CollectCounters("test_worker_packets_total", "Per-worker packets.", func() []Sample {
		return []Sample{
			{Labels: []Label{L("worker", "0")}, Value: 10},
			{Labels: []Label{L("worker", "1")}, Value: 32},
		}
	})

	sk := sketch.New(0)
	for i := 1; i <= 50; i++ {
		sk.Add(float64(i))
	}
	r.CollectSummaries("test_shard_rtt_ms", "Per-shard RTT.", func() []Sample {
		return []Sample{{Labels: []Label{L("shard", "0")}, Sketch: sk}}
	})

	snap := r.Gather()
	if v, ok := snap.Get("test_queue_depth"); !ok || v != 3 {
		t.Fatalf("gauge func: got %v %v, want 3 true", v, ok)
	}
	if v, ok := snap.Get("test_worker_packets_total", L("worker", "1")); !ok || v != 32 {
		t.Fatalf("collected counter: got %v %v, want 32 true", v, ok)
	}

	// The gauge func is read per gather, not captured once.
	depth = 9
	if v, _ := r.Gather().Get("test_queue_depth"); v != 9 {
		t.Fatalf("gauge func rereads: got %v, want 9", v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`test_worker_packets_total{worker="0"} 10`,
		`test_shard_rtt_ms_count{shard="0"} 50`,
		`test_shard_rtt_ms{shard="0",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestQuantileCount pins the static summary's observation counter.
func TestQuantileCount(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("test_lat_ms", "Latency.", 0)
	if q.snapshot().Count() != 0 {
		t.Fatalf("fresh quantile count = %d, want 0", q.snapshot().Count())
	}
	for i := 0; i < 17; i++ {
		q.Observe(float64(i))
	}
	if q.snapshot().Count() != 17 {
		t.Fatalf("quantile count = %d, want 17", q.snapshot().Count())
	}
}

// TestHandler serves the registry over HTTP and checks status,
// content type and body.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_hits_total", "Hits.", func() float64 { return 5 })

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q, want %q", ct, ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(body), "test_hits_total 5") {
		t.Fatalf("body missing counter:\n%s", body)
	}
}
