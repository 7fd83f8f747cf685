package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
)

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != "127.0.0.1:8477" || !c.retainRecords || c.metrics {
		t.Errorf("defaults: %+v", c)
	}
	o := c.serverOptions()
	if o.RetainRecords != crowd.RetainDefault || o.ExposeMetrics {
		t.Errorf("default options: %+v", o)
	}
}

func TestParseFlagsAll(t *testing.T) {
	c, err := parseFlags([]string{
		"-addr", "0.0.0.0:9999",
		"-spool", "/tmp/spool",
		"-token", "secret",
		"-retain-records=false",
		"-metrics",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != "0.0.0.0:9999" || c.spool != "/tmp/spool" || c.token != "secret" {
		t.Errorf("parsed: %+v", c)
	}
	if c.retainRecords || !c.metrics {
		t.Errorf("parsed scale flags: %+v", c)
	}
	o := c.serverOptions()
	if o.RetainRecords != crowd.RetainOff || !o.ExposeMetrics ||
		o.SpoolDir != "/tmp/spool" || o.Token != "secret" {
		t.Errorf("options: %+v", o)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"},                    // the second sharding layer is gone: an unknown flag
		{"-spool-segment-bytes", "1048576"}, // the spool is one file: an unknown flag
		{"-no-such-flag"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
}

func testBatch(dev, key string, ms float64) measure.Batch {
	return measure.Batch{
		Device: dev, Key: key, Seq: 1,
		Records: []measure.Record{{
			Kind: measure.KindTCP, App: "com.example.app", UID: 10001,
			Dst: netip.MustParseAddrPort("203.0.113.7:443"),
			RTT: time.Duration(ms * float64(time.Millisecond)),
			At:  time.Unix(0, 0).UTC(),
		}},
	}
}

func encodeBatch(t *testing.T, b measure.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := measure.EncodeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startServe runs serve() on an ephemeral listener, returning its base
// URL, a cancel that delivers the shutdown, and the done channel.
func startServe(t *testing.T, c config, out io.Writer) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, c, ln, out) }()
	url := "http://" + ln.Addr().String()
	// Wait for the listener to answer.
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return url, cancel, done
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("collector never became ready")
	return "", nil, nil
}

func upload(t *testing.T, url, dev string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/upload", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", measure.BatchContentType)
	req.Header.Set(crowd.DeviceHeader, dev)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestServeGracefulShutdownDrainsAndHeals is the interrupted-restart
// path end to end, in-process: an upload in flight when the shutdown
// signal lands must drain to a committed, spooled batch (not die
// mid-append), and a restart on the same spool must replay both
// records and dedup keys.
func TestServeGracefulShutdownDrainsAndHeals(t *testing.T) {
	spool := t.TempDir()
	c, err := parseFlags([]string{"-spool", spool})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	url, cancel, done := startServe(t, c, &out)

	if resp := upload(t, url, "p1", bytes.NewReader(encodeBatch(t, testBatch("p1", "p1/k/1", 12)))); resp.StatusCode != http.StatusOK {
		t.Fatalf("first upload: %s", resp.Status)
	}

	// Second upload arrives byte by byte: send half the body, let the
	// shutdown land while the handler is mid-read, then finish. The
	// drain must let this commit complete.
	enc := encodeBatch(t, testBatch("p2", "p2/k/1", 34))
	pr, pw := io.Pipe()
	inflight := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/upload", pr)
		req.Header.Set("Content-Type", measure.BatchContentType)
		req.Header.Set(crowd.DeviceHeader, "p2")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			inflight <- nil
			return
		}
		inflight <- resp
	}()
	if _, err := pw.Write(enc[:len(enc)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler block on the body
	cancel()
	time.Sleep(50 * time.Millisecond) // shutdown is now draining
	if _, err := pw.Write(enc[len(enc)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	resp := <-inflight
	if resp == nil {
		t.Fatal("in-flight upload failed during graceful shutdown")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight upload: %s", resp.Status)
	}
	var reply struct{ Status string }
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply.Status != "accepted" {
		t.Fatalf("in-flight reply: %+v err=%v", reply, err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	if !strings.Contains(out.String(), "collected 2 records in 2 batches") {
		t.Fatalf("final tally = %q", out.String())
	}

	// Restart on the same spool: both batches replay, and a redelivery
	// of an already-spooled key is absorbed as a duplicate.
	var out2 bytes.Buffer
	url2, cancel2, done2 := startServe(t, c, &out2)
	if resp := upload(t, url2, "p2", bytes.NewReader(enc)); resp.StatusCode != http.StatusOK {
		t.Fatalf("redelivery after restart: %s", resp.Status)
	} else {
		var reply struct{ Status string }
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply.Status != "duplicate" {
			t.Fatalf("redelivery reply: %+v err=%v (restart lost dedup keys)", reply, err)
		}
	}
	statsResp, err := http.Get(url2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sum struct {
		TCPRecords int `json:"tcp_records"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.TCPRecords != 2 {
		t.Fatalf("after restart TCPRecords = %d, want 2 (spool replay)", sum.TCPRecords)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second serve: %v", err)
	}
	if !strings.Contains(out2.String(), "1 duplicates absorbed") {
		t.Fatalf("restart tally = %q", out2.String())
	}
}

// TestServeMetricsFlag: -metrics exposes the live exposition, and the
// counters move with traffic.
func TestServeMetricsFlag(t *testing.T) {
	c, err := parseFlags([]string{"-metrics"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	url, cancel, done := startServe(t, c, &out)
	for d := 0; d < 4; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		b := encodeBatch(t, testBatch(dev, dev+"/k", float64(10+d)))
		if resp := upload(t, url, dev, bytes.NewReader(b)); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: %s", resp.Status)
		}
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	expo := string(raw)
	for _, want := range []string{
		"mopeye_collector_uploads_total 4",
		"mopeye_collector_records_total 4",
		"mopeye_collector_shard_records{shard=",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("/metrics missing %q:\n%s", want, expo)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// Without -metrics the endpoint stays dark.
func TestServeMetricsOffByDefault(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	url, cancel, done := startServe(t, c, &out)
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without -metrics: %s, want 404", resp.Status)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeDisconnectsSlowClient: a client that stalls half way through
// its request line is cut off once readHeaderTimeout passes, instead of
// holding a goroutine and a descriptor forever, while uploads on other
// connections succeed before and after.
func TestServeDisconnectsSlowClient(t *testing.T) {
	defer func(h, r, i time.Duration) {
		readHeaderTimeout, readTimeout, idleTimeout = h, r, i
	}(readHeaderTimeout, readTimeout, idleTimeout)
	readHeaderTimeout, readTimeout, idleTimeout = 250*time.Millisecond, 2*time.Second, 2*time.Second

	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	url, cancel, done := startServe(t, c, &out)

	slow, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("POST /v1/up")); err != nil {
		t.Fatal(err)
	}
	if resp := upload(t, url, "p1", bytes.NewReader(encodeBatch(t, testBatch("p1", "p1/k/1", 12)))); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload beside the slow client: %s", resp.Status)
	}

	// The server closes the stalled connection without a reply; a read
	// that runs into the deadline instead means it was left open.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("slow client was not disconnected: %v", err)
	}
	if resp := upload(t, url, "p2", bytes.NewReader(encodeBatch(t, testBatch("p2", "p2/k/1", 34)))); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload after the disconnect: %s", resp.Status)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !strings.Contains(out.String(), "collected 2 records in 2 batches") {
		t.Fatalf("final tally = %q", out.String())
	}
}
