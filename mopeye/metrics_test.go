package mopeye

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/metrics"
)

// Arm the registry before the workload, drive traffic, close, and check
// the exposition: engine counters reflect the flood and the RTT summary
// counts agree exactly with the measurement tables (the quantile feed
// joins sinkWG, so Close guarantees the drain is complete).
func TestPhoneMetricsExposition(t *testing.T) {
	p := newPhone(t)
	if err := p.WriteMetrics(io.Discard); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		conn, err := p.Connect(10001, "api.example.com:443")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	p.Close()
	tcp, dns := len(p.TCPMeasurements()), len(p.DNSMeasurements())
	if tcp != 3 || dns != 3 {
		t.Fatalf("%d TCP and %d DNS records after Close, want 3 each", tcp, dns)
	}

	var buf bytes.Buffer
	if err := p.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mopeye_engine_syns_total counter",
		"# TYPE mopeye_phone_rtt_ms summary",
		fmt.Sprintf("mopeye_engine_syns_total %d\n", tcp),
		fmt.Sprintf(`mopeye_phone_rtt_ms_count{kind="tcp"} %d`+"\n", tcp),
		fmt.Sprintf(`mopeye_phone_rtt_ms_count{kind="dns"} %d`+"\n", dns),
		"mopeye_stream_dropped_total 0\n",
		fmt.Sprintf("mopeye_store_records %d\n", tcp+dns),
		fmt.Sprintf("mopeye_store_interned_values %d\n", distinctValues(p.Measurements())),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The snapshot API agrees with the rendered text.
	if v, ok := p.Metrics().Get("mopeye_engine_tcp_measurements_total"); !ok || int(v) != tcp {
		t.Errorf("snapshot tcp measurements = %v, %v; want %d", v, ok, tcp)
	}
}

// distinctValues counts what a store's interning tables hold for recs:
// the distinct non-empty App and Domain strings, the distinct non-zero
// destinations, and the distinct network and zone contexts.
func distinctValues(recs []Measurement) int {
	type netContext struct {
		kind                          measure.Kind
		netType, isp, country, device string
		loc                           *time.Location
	}
	strs := map[string]bool{}
	dsts := map[netip.AddrPort]bool{}
	ctxs := map[netContext]bool{}
	for _, r := range recs {
		for _, v := range []string{r.App, r.Domain} {
			if v != "" {
				strs[v] = true
			}
		}
		if r.Dst != (netip.AddrPort{}) {
			dsts[r.Dst] = true
		}
		ctxs[netContext{r.Kind, r.NetType, r.ISP, r.Country, r.Device, r.At.Location()}] = true
	}
	return len(strs) + len(dsts) + len(ctxs)
}

func TestPhoneMetricsHandler(t *testing.T) {
	p := newPhone(t)
	ts := httptest.NewServer(p.MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != metrics.ContentType {
		t.Errorf("content type %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "mopeye_engine_") {
		t.Errorf("scrape missing engine families:\n%s", body)
	}
}

// Arming the registry on an already-closed phone must not hang or
// subscribe: the instruments register, the quantile feed is skipped.
func TestPhoneMetricsAfterClose(t *testing.T) {
	p := newPhone(t)
	p.Close()
	var buf bytes.Buffer
	if err := p.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mopeye_engine_syns_total") {
		t.Errorf("closed phone scrape missing engine counters:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `mopeye_phone_rtt_ms_count{kind="tcp"} 0`) {
		t.Errorf("closed phone should expose empty summaries:\n%s", buf.String())
	}
}
