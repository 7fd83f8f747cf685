package mopeye

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/measure"
)

// Sink consumes a measurement stream. Implementations are driven by
// Phone.Attach (one Accept per measurement on a dedicated drain
// goroutine, Flush+Close at phone teardown) but are plain values —
// they can equally be fed by hand from a Subscribe loop or a replayed
// export. Accept, Flush and Close are never called concurrently by
// Attach; sinks shared across goroutines must lock, and the shipped
// implementations do.
type Sink interface {
	// Accept consumes one measurement. Returning an error detaches
	// the sink from an Attach-driven stream.
	Accept(Measurement) error
	// Flush forces buffered state out (rows to the writer, a pending
	// batch to the collector).
	Flush() error
	// Close flushes and releases the sink. The sink is not usable
	// afterwards.
	Close() error
}

// JSONLSink streams measurements as JSON Lines — self-describing,
// append-friendly, the format behind `mopeye -follow -jsonl`. The
// caller keeps ownership of w; Close flushes but does not close it.
type JSONLSink struct {
	mu  sync.Mutex
	enc *measure.JSONLEncoder
}

// NewJSONLSink builds a JSONL sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: measure.NewJSONLEncoder(w)}
}

// Accept writes one line and flushes it through, so a consumer
// tailing the stream (`mopeye -jsonl | jq`) sees each measurement as
// it happens rather than when a buffer fills.
func (s *JSONLSink) Accept(m Measurement) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Write(m); err != nil {
		return err
	}
	return s.enc.Flush()
}

// Flush pushes buffered lines through.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Flush()
}

// Close flushes; the underlying writer stays open.
func (s *JSONLSink) Close() error { return s.Flush() }

// CollectorOptions tunes the Collector's upload policy — the paper's
// client-side batching, which holds measurements locally and uploads
// them in bursts rather than per record.
type CollectorOptions struct {
	// BatchSize uploads once this many measurements are pending.
	// Default 256.
	BatchSize int
	// Interval additionally uploads a non-empty pending batch when
	// this much time has passed since the last upload, checked as
	// measurements arrive. Zero or negative disables interval uploads
	// (the default: size-and-flush only, which keeps tests
	// deterministic).
	Interval time.Duration
	// Device stamps uploaded records that carry no device attribution,
	// identifying this phone in the crowdsourced dataset. Default
	// "device-live".
	Device string
	// Transport ships every batch toward a collector server —
	// HTTPTransport for the wire, TransportFunc for in-process
	// consumers. Each batch carries the device stamp, a 1-based
	// sequence number, and an idempotency key unique to this
	// collector, so redelivered batches dedup server-side. Upload is
	// called with the collector's lock held and must not block on the
	// network (HTTPTransport enqueues) or call back into the
	// collector. nil discards each batch once it is counted: the
	// collector keeps no copy of what it uploaded (the phone's own
	// Measurements are the local record). The collector never closes
	// the transport — the owner does, after every phone sharing it has
	// flushed.
	Transport Transport

	// now is the clock, overridable in tests.
	now func() time.Time
	// nonce overrides the random per-collector key component in tests.
	nonce string
}

// Collector is the phone-side uploader: a Sink that batches a phone's
// measurements by size/interval the way MopEye's uploader does, stamps
// them with the device identity, and ships each batch through its
// Transport — HTTPTransport to a live collector server
// (cmd/collectord), or an in-process TransportFunc. It holds only the
// pending batch: once shipped, a record lives in the phone's store and
// on the server, not here.
type Collector struct {
	mu         sync.Mutex
	o          CollectorOptions
	pending    []measure.Record
	uploads    int
	lastUpload time.Time
	// nonce makes this collector's idempotency keys unique even when
	// two phones share a device stamp.
	nonce string
}

// NewCollector builds a collector with the given upload policy.
func NewCollector(o CollectorOptions) *Collector {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Device == "" {
		o.Device = "device-live"
	}
	if o.now == nil {
		o.now = time.Now
	}
	nonce := o.nonce
	if nonce == "" {
		var raw [8]byte
		rand.Read(raw[:]) // never fails (crypto/rand panics instead)
		nonce = hex.EncodeToString(raw[:])
	}
	return &Collector{o: o, lastUpload: o.now(), nonce: nonce}
}

// Accept queues one measurement, uploading when the batch-size or
// interval policy fires. With no Transport it never returns an error;
// with one, a synchronous transport error is returned (and detaches
// an Attach-driven collector, like any failing sink).
func (c *Collector) Accept(m Measurement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, m)
	if len(c.pending) >= c.o.BatchSize ||
		(c.o.Interval > 0 && c.o.now().Sub(c.lastUpload) >= c.o.Interval) {
		return c.upload()
	}
	return nil
}

// Flush uploads the pending batch regardless of policy.
func (c *Collector) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.upload()
}

// Close performs the final upload. A shared Transport is left open for
// its owner to close.
func (c *Collector) Close() error { return c.Flush() }

// upload moves the pending batch server-side: stamps the device
// attribution and — when a Transport is configured — ships the batch
// under a fresh idempotency key. An empty pending batch is suppressed
// entirely: no sequence number is consumed and the transport is not
// called. Caller holds c.mu.
func (c *Collector) upload() error {
	if len(c.pending) == 0 {
		return nil
	}
	c.uploads++
	c.lastUpload = c.o.now()
	if c.o.Transport == nil {
		c.pending = c.pending[:0]
		return nil
	}
	// The batch gets its own records: a queueing transport still holds
	// them after pending is reused.
	stamped := make([]measure.Record, len(c.pending))
	for i, r := range c.pending {
		if r.Device == "" {
			r.Device = c.o.Device
		}
		stamped[i] = r
	}
	c.pending = c.pending[:0]
	b := Batch{
		Device:  c.o.Device,
		Seq:     c.uploads,
		Key:     fmt.Sprintf("%s/%s/%06d", c.o.Device, c.nonce, c.uploads),
		Records: stamped,
	}
	return c.o.Transport.Upload(context.Background(), b)
}

// Uploads reports how many batches have been uploaded.
func (c *Collector) Uploads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uploads
}

// Pending reports the measurements queued but not yet uploaded.
func (c *Collector) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
