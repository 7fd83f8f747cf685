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
// on the batch's (device, epoch, seq) in a bounded per-pair window
// (dedup.go), appends accepted batches to a durable spool, and
// maintains streaming per-app/per-network quantile sketches so
// /v1/stats answers in O(sketch) regardless of dataset size.
// Exactly-once records from at-least-once delivery: the upload
// transport retries freely, the window makes redelivery harmless.
//
// Ingest state is sharded by device-stamp hash (the flowtable
// discipline applied to the collector): each internal shard owns its
// dedup windows behind its own mutex, so the dedup check and spool
// append of different devices never serialize on one lock. A batch's
// device decides its shard, and a batch is only ever checked against
// its own device's windows — consistent because retries of a batch
// carry the same device stamp.
// The sketches are not sharded: the server keeps one per app and one
// per network key behind aggMu, which a commit takes inside its shard
// lock (lock order: shard, then aggMu) for the length of its observe
// loop.

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

// RetainMode is ignored: the server keeps no raw records, only its
// sketches and dedup windows, and the spool is the dataset (ReadSpool).
// The type and RetainOff stay because the benchmark module sets
// ServerOptions.RetainRecords to RetainOff.
type RetainMode int

// RetainOff is the value the benchmark module sets; like every
// RetainMode, it changes nothing.
const RetainOff RetainMode = 1

// ServerOptions configures a collector server.
type ServerOptions struct {
	// SpoolDir, when non-empty, is the durable spool directory: every
	// accepted batch is appended there, and an existing spool is
	// replayed at construction, each batch committed again in file
	// order and marked into the dedup windows (the sketches and each
	// device's recent seqs both survive a restart). The spool is the
	// only copy of the records: ReadSpool reads them back. Empty keeps
	// no records at all, only the sketches.
	SpoolDir string
	// Token, when non-empty, is the shared bearer token every request
	// must present ("Authorization: Bearer <token>").
	Token string
	// RetainRecords is ignored (see RetainMode).
	RetainRecords RetainMode
	// ExposeMetrics registers GET /metrics (Prometheus text exposition)
	// on the server. The endpoint is exempt from the token gate, like
	// /healthz: scrapers are part of the ops plane, and the exposition
	// carries aggregates, not records.
	ExposeMetrics bool
}

// ServerStats counts what the server has seen.
type ServerStats struct {
	// Batches accepted (excluding duplicates), and Records within them.
	Batches int
	Records int
	// Duplicates is redelivered batches absorbed by the dedup windows.
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
	// evictions counts dedup windows dropped at the table's cap; it is
	// a metric only, not part of ServerStats.
	evictions atomic.Int64
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
// dedup windows of the devices hashing here.
type ingestShard struct {
	mu      sync.Mutex
	windows windowTable

	// recCount counts records committed to this shard over its
	// lifetime. Atomic so the metrics scrape can read per-shard skew
	// without taking shard locks.
	recCount atomic.Int64
}

// hashDevice returns a stable 64-bit hash of a device stamp: FNV-1a
// over its bytes, then a murmur-style avalanche finisher. Device stamps
// are structured strings like "phone-07", and plain FNV's low bits are
// too regular on such inputs to spread shards evenly; the finisher
// carries every input bit into the low bits the shard index uses.
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

	// aggMu guards agg, the one set of sketches every shard's commits
	// feed. Taken after a shard's mu, never before it.
	aggMu sync.Mutex
	agg   *agg

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
	s := &Server{o: o, agg: newAgg()}
	for i := range s.shards {
		s.shards[i].windows = newWindowTable()
	}
	if o.SpoolDir != "" {
		spool, err := openSpool(o.SpoolDir, func(b measure.Batch) { s.commit(s.shard(b.Device), b) })
		if err != nil {
			return nil, err
		}
		s.spool = spool
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/upload", s.handleUpload)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if o.ExposeMetrics {
		mux.Handle("GET /metrics", s.metricsRegistry().Handler())
	}
	s.mux = mux
	return s, nil
}

// shard returns the ingest shard owning a device stamp.
func (s *Server) shard(device string) *ingestShard {
	return &s.shards[hashDevice(device)%ingestShards]
}

// commit folds one accepted batch into a shard's state: its seq into
// its pair's dedup window (counting an eviction), its records into the
// sketches. The caller holds sh.mu (or, during construction, has
// exclusive access).
func (s *Server) commit(sh *ingestShard, b measure.Batch) {
	if sh.windows.mark(pairKey{b.Device, b.Epoch}, b.Seq) {
		s.c.evictions.Add(1)
	}
	// The sketches do not look at the device stamp, so the records are
	// observed as decoded.
	s.aggMu.Lock()
	for i := range b.Records {
		s.agg.observe(&b.Records[i])
	}
	s.aggMu.Unlock()
	sh.recCount.Add(int64(len(b.Records)))
	s.c.batches.Add(1)
	s.c.records.Add(int64(len(b.Records)))
}

// ingest is the upload path after decoding and authentication: the
// dedup verdict, the spool append and the commit, under the device's
// shard lock. It reports whether the batch was new; an error is a
// failed spool append, which leaves the batch unseen so that the
// phone's retry gets another chance at durability.
func (s *Server) ingest(b measure.Batch) (accepted bool, err error) {
	// Only this device's shard locks: uploads from devices hashing to
	// other shards proceed concurrently, including through their own
	// spool appends (the spool serializes the file write itself, not
	// the dedup-and-commit of independent shards).
	sh := s.shard(b.Device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.windows.seen(pairKey{b.Device, b.Epoch}, b.Seq) {
		s.c.duplicates.Add(1)
		return false, nil
	}
	// Spool first, then commit. The shard lock is held across
	// the append to keep spool order and commit order identical per
	// device — the replay-equals-live invariant.
	if s.spool != nil {
		if err := s.spool.Append(b); err != nil {
			return false, err
		}
	}
	s.commit(sh, b)
	return true, nil
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
	accepted, err := s.ingest(b)
	switch {
	case err != nil:
		http.Error(w, "spool: "+err.Error(), http.StatusInternalServerError)
	case !accepted:
		writeUploadReply(w, "duplicate", 0)
	default:
		writeUploadReply(w, "accepted", len(b.Records))
	}
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Summary())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return s.c.snapshot()
}

// aggCopy copies the aggregation state under aggMu, so that rendering
// it holds up no commit. O(keys × bins).
func (s *Server) aggCopy() *agg {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.agg.clone()
}

// Summary assembles the sketched /v1/stats document. Cost is
// independent of dataset size.
func (s *Server) Summary() Summary {
	a := s.aggCopy()
	perApp, perNet := a.render()
	return Summary{
		Stats:            s.Stats(),
		TCPRecords:       a.tcp,
		DNSRecords:       a.dns,
		RelativeAccuracy: sketchAlpha,
		Shards:           len(s.shards),
		PerApp:           perApp,
		PerNet:           perNet,
	}
}

// DedupKeys reports how many dedup windows the server holds, one per
// (device, epoch) pair it has seen lately and at most dedupPairs — the
// dedup footprint the load harness tracks. The name predates the
// windows, when it counted one idempotency key per accepted batch.
func (s *Server) DedupKeys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.windows.len()
		sh.mu.Unlock()
	}
	return total
}

// Close closes the spool; the sketches stay readable.
func (s *Server) Close() error {
	if s.spool == nil {
		return nil
	}
	return s.spool.Close()
}
