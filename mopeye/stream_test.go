package mopeye

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamPhone builds a phone and a started subscription collector:
// Subscribe registers before the drain goroutine starts, so
// everything recorded after this returns is observed.
func streamPhone(t *testing.T) (*Phone, func() []Measurement) {
	t.Helper()
	p := newPhone(t)
	stream := p.Subscribe(context.Background())
	var (
		mu  sync.Mutex
		got []Measurement
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range stream {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
		}
	}()
	return p, func() []Measurement {
		<-done // stream ends when the phone closes
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// runWorkload makes conns connections and closes the phone, which waits
// for their records: one TCP record per connect plus one DNS record for
// its resolution.
func runWorkload(t *testing.T, p *Phone, conns int) {
	t.Helper()
	for i := 0; i < conns; i++ {
		conn, err := p.Connect(10001, "api.example.com:443")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	p.Close()
	if n := len(p.Measurements()); n != 2*conns {
		t.Fatalf("%d records after Close, want %d", n, 2*conns)
	}
}

// Draining a subscription across the phone's lifetime must observe
// exactly what Measurements() snapshots, in the same order — the
// pull and push views are the same pipeline.
//
// Records are complete once a phone closes: Stop joins the connect
// threads, and a closed socket stays in /proc/net until the peer's
// FIN. The test counts right after Close, so it repeats under the race
// detector: it must never miss or lose a record.
//
//race:repeat 20
func TestSubscribeMatchesSnapshot(t *testing.T) {
	p, drained := streamPhone(t)
	runWorkload(t, p, 3)
	snap := p.Measurements()
	got := drained()
	if len(got) != len(snap) {
		t.Fatalf("streamed %d, snapshot %d", len(got), len(snap))
	}
	for i := range snap {
		if got[i] != snap[i] {
			t.Errorf("record %d:\n stream  %+v\n snapshot %+v", i, got[i], snap[i])
		}
	}
	if d := p.StreamDrops(); d != 0 {
		t.Errorf("stream drops: %d", d)
	}
}

// Cancelling the context ends the range without closing the phone.
func TestSubscribeContextCancel(t *testing.T) {
	p := newPhone(t)
	ctx, cancel := context.WithCancel(context.Background())
	stream := p.Subscribe(ctx)
	done := make(chan int)
	go func() {
		n := 0
		for range stream {
			n++
		}
		done <- n
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("subscription survived context cancellation")
	}
	// The phone is still alive and measuring.
	conn, err := p.Connect(10001, "api.example.com:443")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

// A subscription whose context is cancelled before (or without) the
// iterator ever being ranged must still detach — an abandoned Seq may
// not keep lagging and inflating the drop counters.
func TestSubscribeCancelWithoutRangeDetaches(t *testing.T) {
	p := newPhone(t)
	ctx, cancel := context.WithCancel(context.Background())
	stream := p.Subscribe(ctx)
	if n := p.bed.Store.Subscribers(); n != 1 {
		t.Fatalf("subscribers after Subscribe: %d", n)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for p.bed.Store.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := p.bed.Store.Subscribers(); n != 0 {
		t.Fatalf("abandoned subscription still attached: %d", n)
	}
	// Ranging the dead iterator is an empty loop, not a hang.
	for range stream {
		t.Error("cancelled subscription yielded a record")
	}
}

// Collect on a closed phone errors; Subscribe is an empty stream.
func TestAttachAfterCloseErrors(t *testing.T) {
	p := newPhone(t)
	p.Close()
	if _, err := p.Collect(CollectorOptions{}); err == nil {
		t.Error("Collect on a closed phone succeeded")
	}
	// Subscribe on a closed phone is an empty stream, not a hang.
	for range p.Subscribe(context.Background()) {
		t.Error("subscription on a closed phone yielded a record")
	}
}

// Run ties the phone's lifetime to a context.
func TestRunClosesOnCancel(t *testing.T) {
	p := newPhone(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.Run(ctx) }()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	// The phone is closed: new streams end immediately.
	for range p.Subscribe(context.Background()) {
		t.Error("closed phone streamed a record")
	}

	// Run on an already-closed phone returns immediately with nil.
	if err := p.Run(context.Background()); err != nil {
		t.Errorf("Run after close: %v", err)
	}
}

// Concurrent Subscribe, Collect, workload and multiple Close calls
// must be race-free (run under -race) and every Close must block until
// teardown completed.
func TestConcurrentSubscribeAttachClose(t *testing.T) {
	p, err := New(Options{
		Servers: []Server{{Domain: "race.example", Addr: "203.0.113.77:80", RTTMillis: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.InstallApp(1, "race.app")

	var wg sync.WaitGroup
	// Streaming subscribers.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range p.Subscribe(context.Background()) {
			}
		}()
	}
	// Collectors racing with close.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Collect(CollectorOptions{}); err != nil {
				return // closed first: acceptable
			}
		}()
	}
	// Workload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			conn, err := p.Connect(1, "203.0.113.77:80")
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	// Concurrent closers.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(5 * time.Millisecond)
			p.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent subscribe/collect/close deadlocked")
	}
	p.Close() // idempotent
}

// A live phone's stream feeds a Collector whose uploads flow into the
// §4.2 Study pipeline — measure once, analyze with the deployment-scale
// code. The uploads equal the snapshot, so nothing was left pending.
func TestCollectorStreamsIntoStudy(t *testing.T) {
	p := newPhone(t)
	tr := &batchLog{}
	col, err := p.Collect(CollectorOptions{BatchSize: 4, Device: "device-e2e", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 6)
	snap := p.Measurements()

	// Batch policy: 7 records at batch size 4 is at least one
	// size-triggered upload plus the final flush.
	if col.Uploads() < 2 {
		t.Errorf("uploads: %d, want >= 2", col.Uploads())
	}
	if err := col.Err(); err != nil {
		t.Errorf("collector: %v", err)
	}
	recs := tr.records()
	if len(recs) != len(snap) {
		t.Fatalf("collector uploaded %d of %d", len(recs), len(snap))
	}
	for _, r := range recs {
		if r.Device != "device-e2e" {
			t.Fatalf("record missing device stamp: %+v", r)
		}
	}
	// Into the §4.2 pipeline.
	st := NewStudyFrom(recs)
	sum := st.Summary()
	if !strings.Contains(sum, "from 1 devices") {
		t.Errorf("study summary: %s", sum)
	}
	ds := st.Dataset()
	if len(ds.Records) != len(recs) {
		t.Errorf("study ingested %d of %d", len(ds.Records), len(recs))
	}
	if d := deviceByID(ds, "device-e2e"); d == nil {
		t.Error("contributing phone missing from study devices")
	}
	if st.ReportContributions() == "" {
		t.Error("empty contributions report")
	}
}
