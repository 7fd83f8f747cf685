package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
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

// AppendBatch appends b's wire encoding to dst: the header line, then
// one JSONL record per line — byte for byte what json.Encoder writes
// for batchHeader and jsonRecord. With room in dst it does not
// allocate, which is what lets the upload transport and the spool
// reuse one buffer across batches.
func AppendBatch(dst []byte, b Batch) []byte {
	dst = append(dst, `{"mopeye_batch":`...)
	dst = strconv.AppendInt(dst, wireVersion, 10)
	dst = append(dst, `,"device":`...)
	dst = appendString(dst, b.Device)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, b.Key)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(b.Seq), 10)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(len(b.Records)), 10)
	dst = append(dst, '}', '\n')
	for i := range b.Records {
		dst = appendRecord(dst, b.Records[i])
	}
	return dst
}

// EncodeBatch writes one batch (see AppendBatch) in a single Write.
func EncodeBatch(w io.Writer, b Batch) error {
	// Sized for escape-free strings so the usual batch is one
	// allocation; anything longer just grows.
	size := 96 + len(b.Device) + len(b.Key)
	for i := range b.Records {
		r := &b.Records[i]
		size += 176 + len(r.App) + len(r.Domain) + len(r.NetType) + len(r.ISP) + len(r.Country) + len(r.Device)
	}
	_, err := w.Write(AppendBatch(make([]byte, 0, size), b))
	return err
}

// ErrTruncatedBatch marks a batch whose stream ended mid-records — the
// tail a crashed spool append leaves behind. Replay code stops there;
// the sender's redelivery (same key) restores the lost batch.
var ErrTruncatedBatch = errors.New("measure: truncated batch")

// BatchDecoder decodes a stream of encoded batches (an upload body
// holds one; a spool file holds many). A batch in the scanner's subset
// of the format (scan.go), which holds whatever AppendBatch writes, is
// read straight out of the input; any other is decoded by
// encoding/json, whose reading of batchHeader and jsonRecord is the
// definition of the format. The strings of a returned Batch are copies,
// never views of the input.
type BatchDecoder struct {
	w    wireBuf
	prev recordCache
	recs []Record // the batch being scanned, kept across refills
	err  error    // first failure, which every later Next repeats
}

// NewBatchDecoder wraps r for batch decoding.
func NewBatchDecoder(r io.Reader) *BatchDecoder {
	return &BatchDecoder{w: wireBuf{r: r}}
}

// InputOffset reports the byte offset after the last decoded value —
// the durable prefix a spool replay can truncate back to. After an
// error it is the offset of the batch that failed.
func (d *BatchDecoder) InputOffset() int64 { return d.w.offset() }

// Next decodes one batch. It returns io.EOF at a clean end of stream,
// and an error wrapping ErrTruncatedBatch when the stream ends between
// a header and its last record. After any error, io.EOF included, the
// decoder is done: later calls return the same error. An Offset inside
// a wrapped encoding/json error counts from the start of the failed
// batch (InputOffset), not of the stream.
func (d *BatchDecoder) Next() (Batch, error) {
	if d.err != nil {
		return Batch{}, d.err
	}
	var b Batch
	d.err = d.w.next(
		func(s *scanner) bool { return d.scan(s, &b) },
		func(dec *json.Decoder) (err error) {
			b, err = d.decode(dec)
			return err
		})
	if d.err != nil {
		return Batch{}, d.err
	}
	return b, nil
}

// checkHeader applies the header rules; both decoders go through it.
func checkHeader(h batchHeader) error {
	if h.V != wireVersion {
		return fmt.Errorf("measure: batch version %d, want %d", h.V, wireVersion)
	}
	if h.Key == "" {
		return fmt.Errorf("measure: batch without idempotency key")
	}
	if h.N < 0 {
		return fmt.Errorf("measure: batch record count %d", h.N)
	}
	return nil
}

// records returns an empty slice for a batch announcing n records,
// reusing the one a declined scan of the same batch left behind.
func (d *BatchDecoder) records(n int) []Record {
	// Cap the pre-allocation: n is attacker-controlled on the upload
	// path, and a lying header must not cost more memory than the body
	// it actually ships (decoding fails at the first missing record).
	n = min(n, 1024)
	if d.recs == nil || cap(d.recs) < n {
		d.recs = make([]Record, 0, n)
	}
	return d.recs[:0]
}

// scan is the fast path: the whole batch out of the buffered bytes, or
// nothing.
func (d *BatchDecoder) scan(s *scanner, b *Batch) bool {
	var h batchHeader
	if !s.header(&h) {
		return false
	}
	if checkHeader(h) != nil {
		return s.fail(declineGrammar) // decode reports it
	}
	recs := d.records(h.N)
	for i := 0; i < h.N; i++ {
		recs = append(recs, Record{})
		if !s.record(&recs[i], &d.prev) {
			if s.why == declineEmpty {
				s.why = declineShort // the batch has begun: not a clean end
			}
			d.recs = recs // grown, perhaps; the rescan starts from it
			return false
		}
	}
	*b = Batch{Device: h.Device, Key: h.Key, Seq: h.Seq, Records: recs}
	d.recs = nil // the caller's now
	return true
}

// decode is the slow path, and the format's definition: one batch
// through encoding/json.
func (d *BatchDecoder) decode(dec *json.Decoder) (Batch, error) {
	var h batchHeader
	if err := dec.Decode(&h); err != nil {
		if err == io.EOF {
			return Batch{}, io.EOF
		}
		return Batch{}, fmt.Errorf("measure: batch header: %w", err)
	}
	if err := checkHeader(h); err != nil {
		return Batch{}, err
	}
	b := Batch{Device: h.Device, Key: h.Key, Seq: h.Seq, Records: d.records(h.N)}
	d.recs = nil
	for i := 0; i < h.N; i++ {
		var j jsonRecord
		if err := dec.Decode(&j); err != nil {
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
	return NewBatchDecoder(r).only()
}

// DecodeBatchBytes is DecodeBatch over a body already in memory. It
// only reads data, and the Batch keeps no reference to it.
func DecodeBatchBytes(data []byte) (Batch, error) {
	d := BatchDecoder{w: wireBuf{buf: data}}
	return d.only()
}

// only decodes the stream's one batch.
func (d *BatchDecoder) only() (Batch, error) {
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
