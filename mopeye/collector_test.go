package mopeye

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/measure"
)

func appRec(app string, ms float64) Measurement {
	return measure.Record{
		Kind: measure.KindTCP, App: app, UID: 10001,
		Dst: netip.MustParseAddrPort("203.0.113.1:443"),
		RTT: time.Duration(ms * float64(time.Millisecond)),
		At:  time.Unix(0, 0).UTC(),
	}
}

// batchLog is an in-process Transport that keeps every batch it is
// handed; read it once the phone has closed.
type batchLog struct{ batches []Batch }

func (l *batchLog) Upload(_ context.Context, b Batch) error {
	l.batches = append(l.batches, b)
	return nil
}

// records flattens the batches into their records, in upload order.
func (l *batchLog) records() []Measurement {
	var recs []Measurement
	for _, b := range l.batches {
		recs = append(recs, b.Records...)
	}
	return recs
}

// bareCollector starts a collector on a bare core; the test records
// into the returned store, and closing the core ends the stream with
// the final upload.
func bareCollector(t *testing.T, o CollectorOptions) (*core, *measure.Store, *Collector) {
	t.Helper()
	c, store, _ := bareCore(t)
	col, err := c.Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	return c, store, col
}

// Full batches ship as they fill; Close ships the partial rest.
func TestCollectorBatchSizePolicy(t *testing.T) {
	tr := &batchLog{}
	c, store, col := bareCollector(t, CollectorOptions{BatchSize: 3, Transport: tr})
	for i := 0; i < 7; i++ {
		store.Add(appRec("a", float64(i+1)))
	}
	c.Close()
	if col.Uploads() != 3 {
		t.Fatalf("uploads after 7 records at batch 3: %d, want 3", col.Uploads())
	}
	for i, want := range []int{3, 3, 1} {
		if got := len(tr.batches[i].Records); got != want {
			t.Errorf("batch %d holds %d records, want %d", i, got, want)
		}
	}
	if got := len(tr.records()); got != 7 {
		t.Errorf("uploaded records: %d", got)
	}
	if err := col.Err(); err != nil {
		t.Error(err)
	}
}

// Uploaded records carry the collector's device stamp, unless they
// already carry one of their own.
func TestCollectorDeviceStamp(t *testing.T) {
	tr := &batchLog{}
	c, store, _ := bareCollector(t, CollectorOptions{BatchSize: 100, Device: "device-test", Transport: tr})
	for _, ms := range []float64{10, 30, 20} {
		store.Add(appRec("com.app.x", ms))
	}
	pre := appRec("com.app.x", 40)
	pre.Device = "device-original"
	store.Add(pre)
	c.Close()
	recs := tr.records()
	if len(recs) != 4 {
		t.Fatalf("uploaded records: %d, want 4", len(recs))
	}
	for _, r := range recs[:3] {
		if r.Device != "device-test" {
			t.Errorf("unstamped upload: %+v", r)
		}
	}
	if got := recs[3].Device; got != "device-original" {
		t.Errorf("pre-attributed device overwritten: %q", got)
	}
}

// A transport may keep every batch it is handed: the collector fills
// each batch in an array of its own, so a later batch never rewrites
// an earlier one.
func TestCollectorNeverReusesABatch(t *testing.T) {
	tr := &batchLog{}
	c, store, _ := bareCollector(t, CollectorOptions{BatchSize: 3, Device: "keep", Transport: tr})
	const n = 10
	for i := 0; i < n; i++ {
		store.Add(appRec("a", float64(i+1)))
	}
	c.Close()
	if len(tr.batches) != 4 {
		t.Fatalf("batches: %d, want 4", len(tr.batches))
	}
	i := 0
	for _, b := range tr.batches {
		for _, r := range b.Records {
			want := appRec("a", float64(i+1))
			want.Device = "keep"
			if r != want {
				t.Errorf("record %d in batch %d reads %+v, want %+v", i, b.Seq, r, want)
			}
			i++
		}
	}
	if i != n {
		t.Errorf("kept batches hold %d records, want %d", i, n)
	}
}

// Close during an in-flight upload: Close blocks until the wedged
// transport delivery completes, then performs its own final upload —
// nothing is lost, nothing ships twice.
func TestCollectorCloseDuringInFlightUpload(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	var batches []Batch
	c, store, _ := bareCollector(t, CollectorOptions{
		BatchSize: 2,
		Device:    "inflight",
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			entered <- struct{}{}
			<-gate // the wire is wedged
			batches = append(batches, b)
			return nil
		}),
	})
	store.Add(appRec("a", 1))
	store.Add(appRec("a", 2)) // the second record fills the batch
	<-entered                 // the upload is now in flight

	closeDone := make(chan struct{})
	go func() { c.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an upload was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // the wire heals
	<-closeDone
	if len(batches) != 1 {
		t.Fatalf("batches delivered: %d, want 1 (close must not reship or drop)", len(batches))
	}
	if got := len(batches[0].Records); got != 2 {
		t.Errorf("in-flight batch records: %d", got)
	}
}

// Empty batches are suppressed end to end: no upload counted, no
// sequence number consumed, no transport call.
func TestCollectorEmptyBatchSuppression(t *testing.T) {
	var calls []Batch
	transport := TransportFunc(func(_ context.Context, b Batch) error {
		calls = append(calls, b)
		if len(b.Records) == 0 {
			t.Error("empty batch reached the transport")
		}
		return nil
	})
	c, _, col := bareCollector(t, CollectorOptions{BatchSize: 4, Transport: transport})
	c.Close()
	if len(calls) != 0 || col.Uploads() != 0 {
		t.Errorf("a collector that saw no record shipped: calls %d uploads %d", len(calls), col.Uploads())
	}
	// One record: exactly one batch, seq 1.
	c, store, _ := bareCollector(t, CollectorOptions{BatchSize: 4, Transport: transport})
	store.Add(appRec("a", 1))
	c.Close()
	if len(calls) != 1 || calls[0].Seq != 1 {
		t.Errorf("one record: %+v", calls)
	}
	// A batch filled exactly leaves nothing for Close to ship.
	calls = nil
	c, store, col = bareCollector(t, CollectorOptions{BatchSize: 2, Transport: transport})
	store.Add(appRec("a", 1))
	store.Add(appRec("a", 2))
	c.Close()
	if len(calls) != 1 || col.Uploads() != 1 {
		t.Errorf("full batch then close: calls %d uploads %d, want 1 and 1", len(calls), col.Uploads())
	}
}

// A transport error stops the collector and surfaces through Err,
// whether a full batch or the final upload at Close hit it.
func TestCollectorTransportErrorPropagates(t *testing.T) {
	boom := errors.New("wire down")
	calls := 0
	failing := TransportFunc(func(context.Context, Batch) error { calls++; return boom })
	c, store, col := bareCollector(t, CollectorOptions{BatchSize: 1, Transport: failing})
	for i := 0; i < 3; i++ {
		store.Add(appRec("a", 1))
	}
	c.Close()
	if err := col.Err(); !errors.Is(err, boom) {
		t.Errorf("full batch: Err() = %v", err)
	}
	if calls != 1 {
		t.Errorf("a stopped collector called its transport %d times, want 1", calls)
	}
	c, store, col = bareCollector(t, CollectorOptions{BatchSize: 100, Transport: failing})
	store.Add(appRec("a", 1))
	c.Close()
	if err := col.Err(); !errors.Is(err, boom) {
		t.Errorf("final upload: Err() = %v", err)
	}
}

// A collector's uploads loaded back from a JSONL export analyse the
// same as the live ones: the full export → ingest loop.
func TestCollectorRoundTripThroughJSONL(t *testing.T) {
	tr := &batchLog{}
	c, store, _ := bareCollector(t, CollectorOptions{BatchSize: 2, Device: "device-rt", Transport: tr})
	for i := 0; i < 5; i++ {
		store.Add(appRec("com.app.rt", float64(10*(i+1))))
	}
	c.Close()

	var buf bytes.Buffer
	if err := measure.WriteJSONL(&buf, tr.records()); err != nil {
		t.Fatal(err)
	}
	loaded, err := measure.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStudyFrom(loaded)
	if got := len(st.Dataset().Records); got != 5 {
		t.Fatalf("round-tripped study records: %d", got)
	}
	if d := deviceByID(st.Dataset(), "device-rt"); d == nil || d.Activity != 5 {
		t.Errorf("device lost in round trip: %+v", d)
	}
}
