package crowd

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

// Server is the collector side of the crowdsourcing wire protocol:
// the net/http handler behind `cmd/collectord`. Phones POST batches
// (measure wire encoding) to /v1/upload; the server authenticates the
// device stamp (and the shared token, when configured), deduplicates
// on the batch idempotency key, appends accepted batches to a durable
// spool, and maintains streaming per-app/per-network quantile sketches
// so /v1/stats answers in O(sketch) regardless of dataset size.
// Exactly-once records from at-least-once delivery: the upload
// transport retries freely, the key dedup makes redelivery harmless.
//
// Ingest state is sharded by device-stamp hash (the flowtable
// discipline applied to the collector): each internal shard owns its
// dedup keys, sketch state, and optional raw records behind its own
// mutex, so uploads from different devices never serialize on one
// lock. A batch's device decides its shard, and a batch's idempotency
// key is only ever checked against its own device's shard — consistent
// because retries of a batch carry the same device stamp.

// Upload protocol headers.
const (
	// DeviceHeader carries the uploading phone's device stamp; it must
	// be present and match the batch header's device.
	DeviceHeader = "X-Mopeye-Device"
)

// Fixed collector parameters: one value each has ever been used, so
// they are constants, not options.
const (
	// ingestShards is the internal lock-shard count.
	ingestShards = 16
	// maxBatchBytes bounds one upload body; a larger one is answered
	// 413 and nothing of it is committed or spooled.
	maxBatchBytes = 8 << 20
	// sketchAlpha is the aggregation sketches' relative accuracy.
	sketchAlpha = sketch.DefaultAlpha
)

// RetainMode selects whether the server keeps raw records in memory.
type RetainMode int

const (
	// RetainDefault keeps raw records (the seed behaviour): /v1/records,
	// Records() and Ingest() serve the full dataset.
	RetainDefault RetainMode = iota
	// RetainOff drops raw records after they feed the sketches: memory
	// stays O(devices + apps) at any ingest volume, /v1/records answers
	// 404, and only the sketched aggregates remain queryable. The load
	// harness and fleet-scale deployments run here.
	RetainOff
)

// ServerOptions configures a collector server.
type ServerOptions struct {
	// SpoolDir, when non-empty, is the durable spool directory: every
	// accepted batch is appended there, and an existing spool is
	// replayed at construction (records and dedup keys both survive a
	// restart). Empty keeps the dataset memory-only.
	SpoolDir string
	// Token, when non-empty, is the shared bearer token every request
	// must present ("Authorization: Bearer <token>").
	Token string
	// RetainRecords controls raw-record retention; the default retains
	// (see RetainMode).
	RetainRecords RetainMode
	// ExposeMetrics registers GET /metrics (Prometheus text exposition)
	// on the server. The endpoint is exempt from the token gate, like
	// /healthz: scrapers are part of the ops plane, and the exposition
	// carries aggregates, not records.
	ExposeMetrics bool
}

func (o *ServerOptions) retain() bool { return o.RetainRecords != RetainOff }

// ServerStats counts what the server has seen.
type ServerStats struct {
	// Batches accepted (excluding duplicates), and Records within them.
	Batches int
	Records int
	// Duplicates is redelivered batches absorbed by key dedup.
	Duplicates int
	// AuthFailures counts rejected tokens and device-stamp mismatches.
	AuthFailures int
	// BadRequests counts malformed uploads.
	BadRequests int
}

// serverCounters is ServerStats maintained as atomics, so the upload
// hot path and stats snapshots never touch a lock for counting.
type serverCounters struct {
	batches      atomic.Int64
	records      atomic.Int64
	duplicates   atomic.Int64
	authFailures atomic.Int64
	badRequests  atomic.Int64
}

func (c *serverCounters) snapshot() ServerStats {
	return ServerStats{
		Batches:      int(c.batches.Load()),
		Records:      int(c.records.Load()),
		Duplicates:   int(c.duplicates.Load()),
		AuthFailures: int(c.authFailures.Load()),
		BadRequests:  int(c.badRequests.Load()),
	}
}

// ingestShard is one lock domain of the server's ingest state: the
// dedup keys, sketches, and (when retained) raw records of the devices
// hashing here.
type ingestShard struct {
	mu   sync.Mutex
	keys map[string]struct{}
	recs []measure.Record
	agg  *agg

	// recCount counts records committed to this shard over its lifetime
	// (independent of retention, unlike len(recs)). Atomic so the
	// metrics scrape can read per-shard skew without taking shard locks.
	recCount atomic.Int64
}

// hashDevice returns a stable 64-bit hash of a device stamp (FNV-1a
// with a murmur-style avalanche finisher — the same construction as
// flowtable.Hash, for the same reason: device stamps are structured
// strings like "phone-07", and plain FNV's low bits are too regular on
// such inputs to spread shards evenly).
func hashDevice(device string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(device); i++ {
		h ^= uint64(device[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Server is the HTTP collector. It implements http.Handler.
type Server struct {
	o   ServerOptions
	mux *http.ServeMux

	shards [ingestShards]ingestShard
	c      serverCounters

	// spool is immutable after construction (nil when memory-only); it
	// carries its own lock, and Close makes later Appends fail cleanly.
	spool *Spool

	// metrics is built lazily on first use (metrics.go); all its
	// instruments are scrape-time reads over the state above.
	metricsOnce sync.Once
	metricsReg  *metrics.Registry
}

// NewServer builds a collector server, replaying the spool when one is
// configured.
func NewServer(o ServerOptions) (*Server, error) {
	s := &Server{o: o}
	for i := range s.shards {
		s.shards[i].keys = make(map[string]struct{})
		s.shards[i].agg = newAgg()
	}
	if o.SpoolDir != "" {
		spool, replay, err := OpenSpool(o.SpoolDir)
		if err != nil {
			return nil, err
		}
		s.spool = spool
		for _, b := range replay.Batches {
			s.commit(s.shard(b.Device), b)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/upload", s.handleUpload)
	mux.HandleFunc("GET /v1/records", s.handleRecords)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if o.ExposeMetrics {
		mux.Handle("GET /metrics", s.MetricsHandler())
	}
	s.mux = mux
	return s, nil
}

// shard returns the ingest shard owning a device stamp.
func (s *Server) shard(device string) *ingestShard {
	return &s.shards[hashDevice(device)%ingestShards]
}

// commit folds one accepted batch into a shard's state. The caller
// holds sh.mu (or, during construction, has exclusive access).
func (s *Server) commit(sh *ingestShard, b measure.Batch) {
	sh.keys[b.Key] = struct{}{}
	// The sketches do not look at the device stamp, so the records are
	// observed as decoded; only a retaining server pays for stamped
	// copies.
	for i := range b.Records {
		sh.agg.observe(&b.Records[i])
	}
	if s.o.retain() {
		sh.recs = append(sh.recs, stampRecords(b)...)
	}
	sh.recCount.Add(int64(len(b.Records)))
	s.c.batches.Add(1)
	s.c.records.Add(int64(len(b.Records)))
}

// ServeHTTP dispatches the collector API. The health probe is exempt
// from the token gate — liveness checkers rarely carry credentials,
// and an unauthenticated "ok" reveals nothing about the dataset. The
// metrics endpoint (when exposed) sits on the same ops plane.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.o.Token != "" && r.URL.Path != "/healthz" &&
		!(s.o.ExposeMetrics && r.URL.Path == "/metrics") && !authorized(r, s.o.Token) {
		s.c.authFailures.Add(1)
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// authorized checks a shared bearer token in constant time.
func authorized(r *http.Request, token string) bool {
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// bufPool holds the buffers of the upload path: a request body while it
// is decoded, a batch's spool encoding while it is written. Neither
// outlives its call — a decoded Batch copies its strings out of the
// body — so a buffer goes back as soon as the call is done.
var bufPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 4<<10)) }}

// maxPooledBuf is the largest buffer the pool takes back; the rare big
// batch's buffer is left to the collector rather than pinned.
const maxPooledBuf = 64 << 10

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// failAfter is a reader that has only its failure left.
type failAfter struct{ err error }

func (f failAfter) Read([]byte) (int, error) { return 0, f.err }

// decodeUpload reads the capped request body into a pooled buffer and
// decodes its one batch from there.
func decodeUpload(w http.ResponseWriter, r *http.Request) (measure.Batch, error) {
	buf := getBuf()
	defer putBuf(buf)
	// Room for the declared length up front, so the usual body is read
	// without growing — but no more than a pooled buffer's worth: the
	// header is only the sender's claim, and a sender that stalls after it
	// must not hold megabytes. Past that the buffer grows with the bytes
	// that actually arrive.
	buf.Grow(int(min(max(r.ContentLength, 0), maxPooledBuf)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBytes)); err != nil {
		// The body broke off (the cap, or the connection): decode what
		// arrived followed by that failure, so the answer is the one a
		// decoder reading the body directly gives.
		return measure.DecodeBatch(io.MultiReader(bytes.NewReader(buf.Bytes()), failAfter{err}))
	}
	return measure.DecodeBatchBytes(buf.Bytes())
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	// Device-stamp authentication: an upload must declare who it is
	// for, and the declaration must match the signed batch header — a
	// mislabelled relay cannot attribute records to another phone.
	device := r.Header.Get(DeviceHeader)
	if device == "" {
		s.c.authFailures.Add(1)
		http.Error(w, "missing "+DeviceHeader, http.StatusForbidden)
		return
	}
	b, err := decodeUpload(w, r)
	if err != nil {
		s.c.badRequests.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if b.Device != device {
		s.c.authFailures.Add(1)
		http.Error(w, "device stamp mismatch", http.StatusForbidden)
		return
	}

	// Only this device's shard locks: uploads from devices hashing to
	// other shards proceed concurrently, including through their own
	// spool appends (the spool serializes the file write itself, not
	// the dedup-and-commit of independent shards).
	sh := s.shard(b.Device)
	sh.mu.Lock()
	if _, dup := sh.keys[b.Key]; dup {
		sh.mu.Unlock()
		s.c.duplicates.Add(1)
		writeUploadReply(w, "duplicate", 0)
		return
	}
	// Spool first, then commit: a failed append leaves the key unseen,
	// so the phone's retry gets another chance at durability. The shard
	// lock is held across the append to keep spool order and commit
	// order identical per device — the replay-equals-live invariant.
	if s.spool != nil {
		if err := s.spool.Append(b); err != nil {
			sh.mu.Unlock()
			http.Error(w, "spool: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.commit(sh, b)
	sh.mu.Unlock()
	writeUploadReply(w, "accepted", len(b.Records))
}

// writeUploadReply answers /v1/upload with
// {"status":"<status>","records":<n>} and a newline.
func writeUploadReply(w http.ResponseWriter, status string, records int) {
	w.Header().Set("Content-Type", "application/json")
	reply := make([]byte, 0, 48)
	reply = append(reply, `{"status":"`...)
	reply = append(reply, status...)
	reply = append(reply, `","records":`...)
	reply = strconv.AppendInt(reply, int64(records), 10)
	reply = append(reply, '}', '\n')
	_, _ = w.Write(reply) // a failed write means the client went away
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	if !s.o.retain() {
		http.Error(w, "record retention disabled (RetainRecords=off); only /v1/stats aggregates exist", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	enc := measure.NewJSONLEncoder(w)
	if err := s.streamRecords(enc); err != nil {
		// Mid-stream failure; the status line is already gone.
		return
	}
	enc.Flush()
}

// streamRecords writes every retained record, shard by shard, without
// ever copying the dataset: each shard's slice is snapshotted under
// its lock (records already appended are immutable, so the snapshot
// stays valid while later uploads append beyond it) and encoded
// outside the lock.
func (s *Server) streamRecords(enc *measure.JSONLEncoder) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snap := sh.recs[:len(sh.recs):len(sh.recs)]
		sh.mu.Unlock()
		for _, r := range snap {
			if err := enc.Write(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Summary())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Records returns a copy of the accepted dataset, shard by shard (each
// shard in arrival order), device-stamped. Nil when retention is off.
func (s *Server) Records() []measure.Record {
	if !s.o.retain() {
		return nil
	}
	out := make([]measure.Record, 0, s.c.records.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.recs...)
		sh.mu.Unlock()
	}
	return out
}

// Ingest assembles the accepted dataset for the §4.2 analysis
// pipeline — what `crowdstudy -serve` runs against a live collector.
// With retention off the dataset is empty; use Summary instead.
func (s *Server) Ingest() *Dataset {
	return Ingest(s.Records())
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return s.c.snapshot()
}

// mergedAgg folds every shard's aggregation state into one, shard
// locks taken one at a time. O(shards × apps × sketch bins).
func (s *Server) mergedAgg() *agg {
	dst := newAgg()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst.merge(sh.agg)
		sh.mu.Unlock()
	}
	return dst
}

// Summary assembles the sketched /v1/stats document. Cost is
// independent of dataset size.
func (s *Server) Summary() Summary {
	a := s.mergedAgg()
	perApp, perNet := a.render()
	return Summary{
		Stats:            s.Stats(),
		TCPRecords:       a.tcp,
		DNSRecords:       a.dns,
		RelativeAccuracy: sketchAlpha,
		Shards:           len(s.shards),
		RetainRecords:    s.o.retain(),
		PerApp:           perApp,
		PerNet:           perNet,
	}
}

// DedupKeys reports how many idempotency keys the server holds — the
// dedup-map footprint the load harness tracks.
func (s *Server) DedupKeys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += len(sh.keys)
		sh.mu.Unlock()
	}
	return total
}

// Close releases the spool (accepted data stays readable in memory).
func (s *Server) Close() error {
	if s.spool == nil {
		return nil
	}
	return s.spool.Close()
}
