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

func sinkRec(app string, ms float64) Measurement {
	return measure.Record{
		Kind: measure.KindTCP, App: app, UID: 10001,
		Dst: netip.MustParseAddrPort("203.0.113.1:443"),
		RTT: time.Duration(ms * float64(time.Millisecond)),
		At:  time.Unix(0, 0).UTC(),
	}
}

// batchLog is an in-process Transport that keeps every batch it is
// handed; read it once the collector has closed.
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

// The file sink must emit exactly what the batch exporter would for
// the same records.
func TestFileSinksMatchBatchExports(t *testing.T) {
	recs := []Measurement{sinkRec("a", 10), sinkRec("b", 20)}

	var sinkOut, batchOut bytes.Buffer
	js := NewJSONLSink(&sinkOut)
	for _, r := range recs {
		if err := js.Accept(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if err := measure.WriteJSONL(&batchOut, recs); err != nil {
		t.Fatal(err)
	}
	if sinkOut.String() != batchOut.String() {
		t.Error("JSONLSink diverges from WriteJSONL")
	}
}

func TestCollectorBatchSizePolicy(t *testing.T) {
	tr := &batchLog{}
	c := NewCollector(CollectorOptions{BatchSize: 3, Transport: tr})
	for i := 0; i < 7; i++ {
		if err := c.Accept(sinkRec("a", float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Uploads() != 2 {
		t.Errorf("uploads after 7 accepts at batch 3: %d, want 2", c.Uploads())
	}
	if c.Pending() != 1 {
		t.Errorf("pending: %d, want 1", c.Pending())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Uploads() != 3 || c.Pending() != 0 {
		t.Errorf("after close: uploads %d pending %d", c.Uploads(), c.Pending())
	}
	if got := len(tr.records()); got != 7 {
		t.Errorf("uploaded records: %d", got)
	}
	// Flush with nothing pending is not an upload.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Uploads() != 3 {
		t.Errorf("empty flush counted as upload: %d", c.Uploads())
	}
}

func TestCollectorIntervalPolicy(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCollector(CollectorOptions{
		BatchSize: 1000,
		Interval:  time.Minute,
		now:       func() time.Time { return now },
	})
	c.Accept(sinkRec("a", 1))
	if c.Uploads() != 0 {
		t.Fatalf("uploaded before the interval: %d", c.Uploads())
	}
	now = now.Add(61 * time.Second)
	c.Accept(sinkRec("a", 2))
	if c.Uploads() != 1 {
		t.Errorf("interval upload missing: %d", c.Uploads())
	}
	if c.Pending() != 0 {
		t.Errorf("pending after interval upload: %d", c.Pending())
	}
}

// Uploaded records carry the collector's device stamp, unless they
// already carry one of their own.
func TestCollectorDeviceStamp(t *testing.T) {
	tr := &batchLog{}
	c := NewCollector(CollectorOptions{BatchSize: 100, Device: "device-test", Transport: tr})
	for _, ms := range []float64{10, 30, 20} {
		c.Accept(sinkRec("com.app.x", ms))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.records() {
		if r.Device != "device-test" {
			t.Errorf("unstamped upload: %+v", r)
		}
	}
	pre := sinkRec("com.app.x", 40)
	pre.Device = "device-original"
	c.Accept(pre)
	c.Flush()
	recs := tr.records()
	if len(recs) != 4 {
		t.Fatalf("uploaded records: %d, want 4", len(recs))
	}
	if got := recs[3].Device; got != "device-original" {
		t.Errorf("pre-attributed device overwritten: %q", got)
	}
}

// Zero and negative intervals both disable interval uploads entirely:
// only the size policy and explicit flushes ship batches.
func TestCollectorZeroAndNegativeInterval(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Minute} {
		now := time.Unix(1000, 0)
		c := NewCollector(CollectorOptions{
			BatchSize: 1000,
			Interval:  interval,
			now:       func() time.Time { return now },
		})
		for i := 0; i < 10; i++ {
			now = now.Add(time.Hour) // hours pass between measurements
			if err := c.Accept(sinkRec("a", 1)); err != nil {
				t.Fatal(err)
			}
		}
		if c.Uploads() != 0 {
			t.Errorf("interval %v: %d interval uploads fired", interval, c.Uploads())
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c.Uploads() != 1 || c.Pending() != 0 {
			t.Errorf("interval %v: close flush missing (uploads %d pending %d)",
				interval, c.Uploads(), c.Pending())
		}
	}
}

// Close during an in-flight upload: Close blocks until the wedged
// transport delivery completes, then performs its own final flush —
// nothing is lost, nothing ships twice.
func TestCollectorCloseDuringInFlightUpload(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	var batches []Batch
	c := NewCollector(CollectorOptions{
		BatchSize: 2,
		Device:    "inflight",
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			entered <- struct{}{}
			<-gate // the wire is wedged
			batches = append(batches, b)
			return nil
		}),
	})

	acceptDone := make(chan error, 1)
	go func() {
		c.Accept(sinkRec("a", 1))
		acceptDone <- c.Accept(sinkRec("a", 2)) // second accept triggers the upload
	}()
	<-entered // the upload is now in flight

	closeDone := make(chan error, 1)
	go func() { closeDone <- c.Close() }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an upload was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // the wire heals
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}
	if err := <-closeDone; err != nil {
		t.Fatal(err)
	}
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
	calls := 0
	c := NewCollector(CollectorOptions{
		BatchSize: 4,
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			calls++
			if len(b.Records) == 0 {
				t.Error("empty batch reached the transport")
			}
			return nil
		}),
	})
	for i := 0; i < 3; i++ {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || c.Uploads() != 0 {
		t.Errorf("empty flushes shipped: calls %d uploads %d", calls, c.Uploads())
	}
	// One record, then the same flush storm: exactly one batch, seq 1.
	c2calls := []Batch{}
	c2 := NewCollector(CollectorOptions{BatchSize: 4,
		Transport: TransportFunc(func(_ context.Context, b Batch) error {
			c2calls = append(c2calls, b)
			return nil
		})})
	c2.Accept(sinkRec("a", 1))
	c2.Flush()
	c2.Flush()
	c2.Close()
	if len(c2calls) != 1 || c2calls[0].Seq != 1 {
		t.Errorf("post-record flush storm: %+v", c2calls)
	}
}

// A synchronous transport error surfaces through the Sink interface.
func TestCollectorTransportErrorPropagates(t *testing.T) {
	boom := errors.New("wire down")
	c := NewCollector(CollectorOptions{
		BatchSize: 1,
		Transport: TransportFunc(func(context.Context, Batch) error { return boom }),
	})
	if err := c.Accept(sinkRec("a", 1)); !errors.Is(err, boom) {
		t.Errorf("Accept: %v", err)
	}
	c2 := NewCollector(CollectorOptions{
		BatchSize: 100,
		Transport: TransportFunc(func(context.Context, Batch) error { return boom }),
	})
	c2.Accept(sinkRec("a", 1))
	if err := c2.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush: %v", err)
	}
}

// A collector's uploads loaded back from a JSONL export analyse the
// same as the live ones: the full export → ingest loop.
func TestCollectorRoundTripThroughJSONL(t *testing.T) {
	tr := &batchLog{}
	c := NewCollector(CollectorOptions{BatchSize: 2, Device: "device-rt", Transport: tr})
	for i := 0; i < 5; i++ {
		c.Accept(sinkRec("com.app.rt", float64(10*(i+1))))
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
