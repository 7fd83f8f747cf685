package mopeye

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/measure"
)

// CollectorOptions tunes the Collector's upload policy — the paper's
// client-side batching, which holds measurements locally and uploads
// them in bursts rather than per record.
type CollectorOptions struct {
	// BatchSize uploads once this many measurements are pending; each
	// batch is allocated at this capacity. Default 256.
	BatchSize int
	// Device stamps uploaded records that carry no device attribution,
	// identifying this phone in the crowdsourced dataset. Default
	// "device-live".
	Device string
	// Transport ships every batch toward a collector server —
	// HTTPTransport for the wire, TransportFunc for in-process
	// consumers. Each batch carries the device stamp, a 1-based
	// sequence number counted in an epoch unique to this collector,
	// and an idempotency key, so redelivered batches dedup
	// server-side. Upload is called on the collector's own goroutine,
	// one batch at a time, and the batch's records are the
	// transport's to keep: the collector never touches them again.
	// Upload must not block on the network (HTTPTransport enqueues);
	// while it runs, the phone's records wait in the collector's
	// subscription. nil discards each batch once it is counted: the
	// collector keeps no copy of what it uploaded (the phone's own
	// Measurements are the local record). The collector never closes
	// the transport — the owner does, after every phone sharing it has
	// closed.
	Transport Transport
}

// Collector is the phone-side uploader: it reads the phone's
// measurements from its own subscription, batches them by size the way
// MopEye's uploader does, stamps them with the device identity, and
// ships each batch through its Transport — HTTPTransport to a live
// collector server (cmd/collectord), or an in-process TransportFunc.
// It holds only the batch it is filling: once shipped, a record lives
// in the phone's store and on the server, not here.
type Collector struct {
	o CollectorOptions
	// epoch makes this collector's idempotency keys unique even when
	// two phones share a device stamp, and is the epoch its batches'
	// seqs count in, so the server keeps one window per collector.
	epoch string
	// batch is the one being filled; only the collector's goroutine
	// touches it.
	batch []measure.Record

	mu      sync.Mutex
	uploads int
	err     error
}

// Collect starts a Collector on the phone: every measurement recorded
// from this call on is batched and uploaded, and Close uploads the
// final partial batch before it tears the data plane down. A transport
// error stops the collector; Err reports it. Collect fails on a closed
// phone.
func (p *core) Collect(o CollectorOptions) (*Collector, error) {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Device == "" {
		o.Device = "device-live"
	}
	var raw [8]byte
	rand.Read(raw[:]) // never fails (crypto/rand panics instead)
	c := &Collector{o: o, epoch: hex.EncodeToString(raw[:])}
	if !p.drain(c.add, func() { c.upload() }) {
		return nil, fmt.Errorf("mopeye: Collect on a closed phone")
	}
	return c, nil
}

// add reads one record into the batch, stamped with the device unless
// it carries one, and uploads the batch once it is full. It reports
// false, stopping the collector, when the upload fails.
func (c *Collector) add(r measure.Record) bool {
	if c.batch == nil {
		c.batch = make([]measure.Record, 0, c.o.BatchSize)
	}
	if r.Device == "" {
		r.Device = c.o.Device
	}
	c.batch = append(c.batch, r)
	return len(c.batch) < c.o.BatchSize || c.upload()
}

// upload ships the batch under the next sequence number and leaves the
// collector with none, so a transport that keeps the batch keeps
// records nothing else writes. An empty batch is suppressed entirely:
// no sequence number is consumed and the transport is not called.
func (c *Collector) upload() bool {
	if len(c.batch) == 0 {
		return true
	}
	c.mu.Lock()
	c.uploads++
	seq := c.uploads
	c.mu.Unlock()
	if c.o.Transport == nil {
		c.batch = c.batch[:0]
		return true
	}
	b := Batch{
		Device:  c.o.Device,
		Epoch:   c.epoch,
		Seq:     seq,
		Key:     fmt.Sprintf("%s/%s/%06d", c.o.Device, c.epoch, seq),
		Records: c.batch,
	}
	c.batch = nil
	if err := c.o.Transport.Upload(context.Background(), b); err != nil {
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
		return false
	}
	return true
}

// Uploads reports how many batches have been uploaded.
func (c *Collector) Uploads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uploads
}

// Err reports the transport error that stopped the collector, if any.
// Complete once the phone is closed.
func (c *Collector) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
