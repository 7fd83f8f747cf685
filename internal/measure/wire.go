package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// This file is the batch wire encoding behind the crowdsourcing
// upload path: the unit a phone's Collector ships to a collector
// server is a Batch — a device-stamped, idempotency-keyed group of
// records. The encoding is a one-line JSON header followed by the
// records in the existing JSONL form, so a spool file (a sequence of
// encoded batches) stays greppable, append-only, and decodable with
// the same code that decodes one HTTP request body.

// BatchContentType is the media type an encoded batch travels under.
const BatchContentType = "application/x-mopeye-batch"

// wireVersion is the batch header version this code writes and the
// only one it accepts.
const wireVersion = 1

// Batch is the unit of crowdsourced upload: one device's pending
// records, stamped and keyed so a receiver can deduplicate redelivery.
type Batch struct {
	// Device identifies the contributing phone.
	Device string
	// Key is the batch's idempotency key: unique per batch, stable
	// across retries of the same batch, so at-least-once delivery plus
	// receiver-side dedup yields exactly-once records.
	Key string
	// Seq is the device's upload sequence number, 1-based.
	Seq int
	// Records are the measurements in upload order.
	Records []Record
}

// batchHeader is the wire form of the batch metadata line.
type batchHeader struct {
	V      int    `json:"mopeye_batch"`
	Device string `json:"device"`
	Key    string `json:"key"`
	Seq    int    `json:"seq"`
	N      int    `json:"n"`
}

// EncodeBatch writes one batch: the header line, then one JSONL record
// per line.
func EncodeBatch(w io.Writer, b Batch) error {
	enc := json.NewEncoder(w)
	h := batchHeader{V: wireVersion, Device: b.Device, Key: b.Key, Seq: b.Seq, N: len(b.Records)}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, r := range b.Records {
		if err := enc.Encode(toJSONRecord(r)); err != nil {
			return err
		}
	}
	return nil
}

// ErrTruncatedBatch marks a batch whose stream ended mid-records — the
// tail a crashed spool append leaves behind. Replay code stops there;
// the sender's redelivery (same key) restores the lost batch.
var ErrTruncatedBatch = errors.New("measure: truncated batch")

// BatchDecoder decodes a stream of encoded batches (an upload body
// holds one; a spool file holds many).
type BatchDecoder struct {
	dec *json.Decoder
}

// NewBatchDecoder wraps r for batch decoding.
func NewBatchDecoder(r io.Reader) *BatchDecoder {
	return &BatchDecoder{dec: json.NewDecoder(r)}
}

// InputOffset reports the byte offset after the last decoded value —
// the durable prefix a spool replay can truncate back to.
func (d *BatchDecoder) InputOffset() int64 { return d.dec.InputOffset() }

// Next decodes one batch. It returns io.EOF at a clean end of stream,
// and an error wrapping ErrTruncatedBatch when the stream ends between
// a header and its last record.
func (d *BatchDecoder) Next() (Batch, error) {
	var h batchHeader
	if err := d.dec.Decode(&h); err != nil {
		if err == io.EOF {
			return Batch{}, io.EOF
		}
		return Batch{}, fmt.Errorf("measure: batch header: %w", err)
	}
	if h.V != wireVersion {
		return Batch{}, fmt.Errorf("measure: batch version %d, want %d", h.V, wireVersion)
	}
	if h.Key == "" {
		return Batch{}, fmt.Errorf("measure: batch without idempotency key")
	}
	if h.N < 0 {
		return Batch{}, fmt.Errorf("measure: batch record count %d", h.N)
	}
	// Cap the pre-allocation: h.N is attacker-controlled on the upload
	// path, and a lying header must not cost more memory than the body
	// it actually ships (decoding fails at the first missing record).
	preAlloc := h.N
	if preAlloc > 1024 {
		preAlloc = 1024
	}
	b := Batch{Device: h.Device, Key: h.Key, Seq: h.Seq, Records: make([]Record, 0, preAlloc)}
	for i := 0; i < h.N; i++ {
		var j jsonRecord
		if err := d.dec.Decode(&j); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return Batch{}, fmt.Errorf("measure: batch %q record %d/%d: %w", h.Key, i+1, h.N, ErrTruncatedBatch)
			}
			return Batch{}, fmt.Errorf("measure: batch %q record %d: %w", h.Key, i+1, err)
		}
		rec, err := j.record()
		if err != nil {
			return Batch{}, fmt.Errorf("measure: batch %q record %d: %w", h.Key, i+1, err)
		}
		b.Records = append(b.Records, rec)
	}
	return b, nil
}

// DecodeBatch decodes exactly one batch from r (an upload request
// body); trailing content is an error.
func DecodeBatch(r io.Reader) (Batch, error) {
	d := NewBatchDecoder(r)
	b, err := d.Next()
	if err != nil {
		if err == io.EOF {
			return Batch{}, fmt.Errorf("measure: empty batch body")
		}
		return Batch{}, err
	}
	_, err = d.Next()
	if err == io.EOF {
		return b, nil
	}
	if err == nil {
		err = errors.New("a second batch")
	}
	// Wrapped, so a caller can tell its own reader's failure (a body
	// cap hit in the tail) from garbage.
	return Batch{}, fmt.Errorf("measure: trailing content after batch %q: %w", b.Key, err)
}

// SortCanonical orders records deterministically by (device, time,
// kind, app, ...). Crowdsourced records arrive in whatever order the
// contributing phones' uploads interleave; canonical order is what
// makes two independently-assembled copies of the same dataset
// comparable byte for byte (and keeps crowd.Ingest's first-appearance
// device numbering stable).
func SortCanonical(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return canonicalLess(recs[i], recs[j]) })
}

func canonicalLess(a, b Record) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	if !a.At.Equal(b.At) {
		return a.At.Before(b.At)
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.App != b.App {
		return a.App < b.App
	}
	if a.UID != b.UID {
		return a.UID < b.UID
	}
	if c := a.Dst.Compare(b.Dst); c != 0 {
		return c < 0
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	if a.RTT != b.RTT {
		return a.RTT < b.RTT
	}
	if a.NetType != b.NetType {
		return a.NetType < b.NetType
	}
	if a.ISP != b.ISP {
		return a.ISP < b.ISP
	}
	return a.Country < b.Country
}
