package mopeye

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crowd"
)

// flakyHandler is the fault-injection harness: it fronts a collector
// server and misbehaves per a script, one entry consumed per upload
// request (exhausted script = healthy). Modes:
//
//	"503"  — refuse before the server sees the batch (clean retry)
//	"dup"  — let the server commit the batch, then answer 503 anyway,
//	         so the client's retry is a duplicate delivery (the dedup
//	         path: commit-then-crash)
//	"hang" — stall past the client's timeout, then refuse
//	"ok"   — pass through
//
// Non-upload requests always pass through.
type flakyHandler struct {
	inner  http.Handler
	mu     sync.Mutex
	script []string
	served int
}

func (f *flakyHandler) next() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.served >= len(f.script) {
		return "ok"
	}
	op := f.script[f.served]
	f.served++
	return op
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/upload" {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.next() {
	case "503":
		http.Error(w, "injected unavailability", http.StatusServiceUnavailable)
	case "dup":
		f.inner.ServeHTTP(httptest.NewRecorder(), r)
		http.Error(w, "injected post-commit failure", http.StatusServiceUnavailable)
	case "hang":
		time.Sleep(150 * time.Millisecond)
		http.Error(w, "injected stall", http.StatusServiceUnavailable)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// flakyCollectord builds collector server + flaky front + transport
// with fast test backoff.
func flakyCollectord(t *testing.T, script []string, o HTTPTransportOptions) (*crowd.Server, *flakyHandler, *HTTPTransport) {
	t.Helper()
	srv, err := crowd.NewServer(crowd.ServerOptions{Token: o.Token})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyHandler{inner: srv, script: script}
	ts := httptest.NewServer(flaky)
	t.Cleanup(ts.Close)
	if o.BackoffBase == 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 4 * time.Millisecond
	}
	tr := NewHTTPTransport(ts.URL, o)
	t.Cleanup(func() { tr.Close() })
	return srv, flaky, tr
}

func uploadRecs(n int, app string) []Measurement {
	out := make([]Measurement, n)
	for i := range out {
		out[i] = appRec(app, float64(i+1))
	}
	return out
}

// Retry converges: a batch that meets scripted 503s and a timeout is
// still delivered exactly once.
func TestHTTPTransportRetryConverges(t *testing.T) {
	srv, _, tr := flakyCollectord(t, []string{"503", "hang", "503"}, HTTPTransportOptions{
		Client: &http.Client{Timeout: 30 * time.Millisecond},
	})
	b := Batch{Device: "p1", Key: "p1/n/1", Seq: 1, Records: uploadRecs(3, "com.app")}
	if err := tr.Upload(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := tr.Stats()
	if st.Uploaded != 1 || st.Failed != 0 || st.Retried < 3 {
		t.Errorf("transport stats: %+v", st)
	}
	ss := srv.Stats()
	if ss.Batches != 1 || ss.Records != 3 || ss.Duplicates != 0 {
		t.Errorf("server stats: %+v", ss)
	}
}

// Commit-then-fail redelivery is absorbed by server dedup: records
// land exactly once even though the batch was delivered twice.
func TestHTTPTransportDedupExactlyOnce(t *testing.T) {
	srv, _, tr := flakyCollectord(t, []string{"dup", "ok", "dup"}, HTTPTransportOptions{})
	for seq := 1; seq <= 3; seq++ {
		b := Batch{Device: "p1", Key: "p1/n/" + strings.Repeat("i", seq), Seq: seq,
			Records: uploadRecs(2, "com.app")}
		if err := tr.Upload(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ss := srv.Stats()
	if ss.Batches != 3 || ss.Records != 6 {
		t.Errorf("server stats: %+v (want 3 batches, 6 records)", ss)
	}
	if ss.Duplicates != 2 {
		t.Errorf("duplicates absorbed: %d, want 2", ss.Duplicates)
	}
}

// A terminal rejection (bad token) fails fast: no retry storm, error
// surfaced, later Err() visible.
func TestHTTPTransportTerminalError(t *testing.T) {
	_, flaky, tr := flakyCollectord(t, nil, HTTPTransportOptions{Token: "wrong"})
	// Server without token vs transport with one is fine; flip it:
	// build a server requiring a token the transport doesn't send.
	srv, err := crowd.NewServer(crowd.ServerOptions{Token: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	flaky.inner = srv

	b := Batch{Device: "p1", Key: "k", Seq: 1, Records: uploadRecs(1, "a")}
	if err := tr.Upload(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err == nil {
		t.Fatal("terminal error not surfaced by Close")
	}
	st := tr.Stats()
	if st.Failed != 1 || st.Retried != 0 || st.Uploaded != 0 {
		t.Errorf("stats after 401: %+v (want 1 failed, 0 retries)", st)
	}
	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "401") {
		t.Errorf("Err(): %v", tr.Err())
	}
}

// Upload never blocks: with the queue full (uploader wedged on a slow
// server) extra batches are dropped and counted, and the caller
// returns immediately.
func TestHTTPTransportBoundedQueueDrops(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()
	tr := NewHTTPTransport(slow.URL, HTTPTransportOptions{QueueSize: 2})
	defer func() {
		close(release)
		tr.Close()
	}()

	start := time.Now()
	for i := 0; i < 10; i++ {
		b := Batch{Device: "p1", Key: strings.Repeat("k", i+1), Seq: i + 1,
			Records: uploadRecs(1, "a")}
		if err := tr.Upload(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Upload blocked for %v", elapsed)
	}
	if st := tr.Stats(); st.Dropped == 0 {
		t.Error("no drops counted with a wedged uploader and a full queue")
	}
}

// After Close, Upload refuses instead of panicking, and Close is
// idempotent.
func TestHTTPTransportClosed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, HTTPTransportOptions{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	err := tr.Upload(context.Background(), Batch{Device: "d", Key: "k"})
	if err != ErrTransportClosed {
		t.Errorf("Upload after Close: %v", err)
	}
}

// Collector batches ship with unique, monotonically-sequenced
// idempotency keys, the final partial batch at Close included.
func TestCollectorBatchKeys(t *testing.T) {
	var batches []Batch
	c, store, _ := bareCollector(t, CollectorOptions{
		BatchSize: 2,
		Device:    "keys",
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			batches = append(batches, b)
			return nil
		}),
	})
	for i := 0; i < 5; i++ {
		store.Add(appRec("a", 1))
	}
	c.Close()

	if len(batches) != 3 {
		t.Fatalf("batches shipped: %d, want 3", len(batches))
	}
	seen := map[string]bool{}
	for i, b := range batches {
		if b.Seq != i+1 {
			t.Errorf("batch %d has seq %d", i, b.Seq)
		}
		if b.Device != "keys" {
			t.Errorf("batch %d device %q", i, b.Device)
		}
		if seen[b.Key] {
			t.Errorf("key %q reused", b.Key)
		}
		seen[b.Key] = true
	}
	// Two collectors sharing a device stamp never collide on keys.
	c2, store2, _ := bareCollector(t, CollectorOptions{BatchSize: 2, Device: "keys",
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			if seen[b.Key] {
				t.Errorf("cross-collector key collision: %q", b.Key)
			}
			return nil
		})})
	store2.Add(appRec("a", 1))
	c2.Close()
}

// BlockOnFull converts queue overflow from drops into backpressure:
// a slow collector with a 1-slot queue still receives every batch.
func TestHTTPTransportBlockOnFull(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		served.Add(1)
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{QueueSize: 1, BlockOnFull: true})
	for i := 0; i < 8; i++ {
		b := Batch{Device: "p1", Key: string(rune('a' + i)), Seq: i, Records: uploadRecs(1, "com.app")}
		if err := tr.Upload(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Dropped != 0 || st.Uploaded != 8 {
		t.Errorf("blocking transport stats: %+v", st)
	}
	if ss := srv.Stats(); ss.Batches != 8 {
		t.Errorf("server got %d batches", ss.Batches)
	}
	// A cancelled context unblocks a waiting Upload.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tr.Upload(ctx, Batch{}); err == nil {
		t.Error("upload on cancelled context accepted")
	}
}

// An Upload waiting on a full queue is released by its event, not a
// poll: cancelling its context returns ctx.Err(), and Close returns
// ErrTransportClosed to one still waiting.
func TestHTTPTransportBlockedUploadReleased(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		<-gate
	}))
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{QueueSize: 1, BlockOnFull: true})
	upload := func(ctx context.Context, seq int) error {
		return tr.Upload(ctx, Batch{Device: "p1", Key: fmt.Sprint(seq), Seq: seq, Records: uploadRecs(1, "a")})
	}
	// Batch 1 wedges the uploader behind the gate; batch 2 fills the
	// queue.
	if err := upload(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := upload(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	waiting := func(ctx context.Context, seq int) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- upload(ctx, seq) }()
		select {
		case err := <-errc:
			t.Fatalf("Upload %d returned %v with the queue full", seq, err)
		case <-time.After(20 * time.Millisecond):
		}
		return errc
	}
	released := func(errc <-chan error, want error) {
		t.Helper()
		select {
		case err := <-errc:
			if err != want {
				t.Errorf("released Upload returned %v, want %v", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked Upload was never released")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := waiting(ctx, 3)
	cancel()
	released(errc, context.Canceled)

	errc = waiting(context.Background(), 4)
	closed := make(chan error, 1)
	go func() { closed <- tr.Close() }()
	released(errc, ErrTransportClosed)
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Uploaded != 2 || st.Dropped != 0 {
		t.Errorf("stats: %+v, want the 2 queued batches uploaded", st)
	}
}

// OnAttempt observes every delivery attempt — failures with their
// errors, then the success — in order.
func TestHTTPTransportOnAttempt(t *testing.T) {
	var durs []time.Duration
	var errs []error
	srv, _, tr := flakyCollectord(t, []string{"503", "503"}, HTTPTransportOptions{
		OnAttempt: func(d time.Duration, err error) {
			durs = append(durs, d)
			errs = append(errs, err)
		},
	})
	b := Batch{Device: "p1", Key: "p1/k/1", Seq: 1, Records: uploadRecs(2, "com.app")}
	if err := tr.Upload(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 || errs[0] == nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("attempt errors: %v", errs)
	}
	for i, d := range durs {
		if d <= 0 {
			t.Errorf("attempt %d duration: %v", i, d)
		}
	}
	if ss := srv.Stats(); ss.Batches != 1 {
		t.Errorf("server stats: %+v", ss)
	}
}

// The stats client reads the sketched aggregates over the wire.
func TestFetchCollectorStats(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{Token: "tok"})
	b := Batch{Device: "p1", Key: "p1/k/1", Seq: 1, Records: uploadRecs(5, "com.app")}
	if err := tr.Upload(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := FetchCollectorStats(ts.Client(), ts.URL, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Records != 5 || sum.TCPRecords != 5 {
		t.Errorf("summary: %+v", sum)
	}
	qs, ok := sum.PerApp["com.app"]
	if !ok || qs.N != 5 {
		t.Errorf("per-app summary: %+v", sum.PerApp)
	}
	if _, err := FetchCollectorStats(ts.Client(), ts.URL, "wrong"); err == nil {
		t.Error("bad token accepted")
	}
}
