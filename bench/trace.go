package main

import (
	"encoding/json"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tun"
	"repro/internal/upstream"
)

// This file is the traced pass's instrumentation: span recorders
// wrapped around the seams the bench can reach from outside — the
// engine's tun.Interface and upstream.Dialer, and on the collector
// path the client's http.RoundTripper and the server's http.Handler.
// Spans inside the engine (rings, worker loop, relay, write queue) are
// a later change; their time shows up in the reconciliation rows.

// Limits on what the tracer retains. Totals are exact; raw spans and
// raw packets are kept only up to these caps so a traced relay run
// (millions of spans) stays in memory and the trace file stays small.
const (
	rawSpansPerKind  = 2000
	capturePackets   = 50000
	captureBytes     = 16 << 20
	spanHeaderParent = "X-Bench-Span"
)

// span is one recorded interval. Parent is the id of the span that
// caused it (0 for a root); Op groups the spans of one operation (a
// flow's local port on the engine path, the request's span id on the
// collector path).
type span struct {
	ID      int64 `json:"id"`
	Parent  int64 `json:"parent"`
	Op      int64 `json:"op"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// spanKind aggregates every span of one name.
type spanKind struct {
	name     string
	keepDurs bool // keep every duration (low-rate kinds that report a percentile)

	count atomic.Int64
	ns    atomic.Int64
	units atomic.Int64 // kind-specific work count: packets, bytes
	hits  atomic.Int64 // spans that did any work (units > 0)

	mu   sync.Mutex
	raw  []span
	durs []float64 // µs
}

type tracer struct {
	on     atomic.Bool
	base   time.Time
	nextID atomic.Int64

	tunRead, tunWrite         *spanKind
	dial, upWrite, upRead     *spanKind
	clientUpload, handlerSpan *spanKind
	clientStats, handlerStats *spanKind
	cap                       *capture
}

func newTracer() *tracer {
	k := func(name string, keepDurs bool) *spanKind { return &spanKind{name: name, keepDurs: keepDurs} }
	return &tracer{
		tunRead:      k("tun.read", false),
		tunWrite:     k("tun.write", false),
		dial:         k("upstream.dial", true),
		upWrite:      k("upstream.write", false),
		upRead:       k("upstream.read", false),
		clientUpload: k("transport.upload", true),
		handlerSpan:  k("crowd.handler.upload", true),
		clientStats:  k("transport.stats", true),
		handlerStats: k("crowd.handler.stats", true),
		cap:          &capture{},
	}
}

func (t *tracer) kinds() []*spanKind {
	return []*spanKind{t.tunRead, t.tunWrite, t.dial, t.upWrite, t.upRead,
		t.clientUpload, t.handlerSpan, t.clientStats, t.handlerStats}
}

// start and stop bracket the timed section: set-up traffic (opening
// the standing flows) is not part of the per-layer numbers.
func (t *tracer) start() {
	if t != nil {
		t.base = time.Now()
		t.on.Store(true)
	}
}

func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

// begin returns the span's start instant, or the zero time when the
// tracer is off.
func (t *tracer) begin() time.Time {
	if !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// end records a span begun at start under a fresh id and returns it.
func (t *tracer) end(k *spanKind, start time.Time, parent, op, units int64) int64 {
	if start.IsZero() {
		return 0
	}
	return t.endAs(k, start, t.nextID.Add(1), parent, op, units)
}

// endAs records a span whose id was reserved before it began (the
// client span of a request, whose id travels in a header).
func (t *tracer) endAs(k *spanKind, start time.Time, id, parent, op, units int64) int64 {
	if start.IsZero() {
		return 0
	}
	end := time.Now()
	d := end.Sub(start)
	n := k.count.Add(1)
	k.ns.Add(int64(d))
	k.units.Add(units)
	if units > 0 {
		k.hits.Add(1)
	}
	if k.keepDurs || n <= rawSpansPerKind {
		k.mu.Lock()
		if k.keepDurs {
			k.durs = append(k.durs, micros(d))
		}
		if len(k.raw) < rawSpansPerKind {
			k.raw = append(k.raw, span{ID: id, Parent: parent, Op: op,
				StartNS: int64(start.Sub(t.base)), EndNS: int64(end.Sub(t.base))})
		}
		k.mu.Unlock()
	}
	return id
}

func (k *spanKind) nsPer(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(k.ns.Load()) / float64(n)
}

// capture holds the first raw packets seen in each direction on the
// TUN seam, the input of the packet/tcpsm/flowtable replay.
type capture struct {
	mu      sync.Mutex
	fromTun [][]byte // app → engine
	toTun   [][]byte // engine → app
	bytes   [2]int
}

// add keeps a copy of pkt and reports whether the direction has room
// for more.
func (c *capture) add(dir int, pkt []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	dst := &c.fromTun
	if dir == 1 {
		dst = &c.toTun
	}
	if len(*dst) >= capturePackets || c.bytes[dir] >= captureBytes {
		return false
	}
	*dst = append(*dst, append([]byte(nil), pkt...))
	c.bytes[dir] += len(pkt)
	return true
}

// tracedTun decorates the emulated device on the engine's side only:
// the phone stack keeps the *tun.Device it injects into. A read span
// covers the blocking wait for the next packet, so its total is the
// reader's idle time; a write span covers the copy into the inbound
// queue.
type tracedTun struct {
	*tun.Device
	tr      *tracer
	capDone [2]atomic.Bool
}

func (d *tracedTun) capture(dir int, pkt []byte) {
	if d.capDone[dir].Load() || !d.tr.on.Load() {
		return
	}
	if !d.tr.cap.add(dir, pkt) {
		d.capDone[dir].Store(true)
	}
}

func (d *tracedTun) Read() ([]byte, error) {
	t0 := d.tr.begin()
	pkt, err := d.Device.Read()
	if err == nil {
		d.tr.end(d.tr.tunRead, t0, 0, 0, 1)
		d.capture(0, pkt)
	}
	return pkt, err
}

func (d *tracedTun) ReadBatch(dst [][]byte) (int, error) {
	t0 := d.tr.begin()
	n, err := d.Device.ReadBatch(dst)
	if err == nil {
		d.tr.end(d.tr.tunRead, t0, 0, 0, int64(n))
		for _, pkt := range dst[:n] {
			d.capture(0, pkt)
		}
	}
	return n, err
}

func (d *tracedTun) Write(pkt []byte) error {
	t0 := d.tr.begin()
	err := d.Device.Write(pkt)
	d.tr.end(d.tr.tunWrite, t0, 0, 0, 1)
	d.capture(1, pkt)
	return err
}

func (d *tracedTun) WriteBatch(pkts [][]byte) (int, error) {
	t0 := d.tr.begin()
	n, err := d.Device.WriteBatch(pkts)
	d.tr.end(d.tr.tunWrite, t0, 0, 0, int64(n))
	for _, pkt := range pkts {
		d.capture(1, pkt)
	}
	return n, err
}

// tracedDialer records one span per external connect and hands back a
// connection whose reads and writes are children of it.
type tracedDialer struct {
	next upstream.Dialer
	tr   *tracer
}

func (d *tracedDialer) Dial(local, dst netip.AddrPort) (upstream.Conn, error) {
	t0 := d.tr.begin()
	c, err := d.next.Dial(local, dst)
	op := int64(local.Port())
	id := d.tr.end(d.tr.dial, t0, 0, op, 1)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: d.tr, parent: id, op: op}, nil
}

type tracedConn struct {
	upstream.Conn
	tr         *tracer
	parent, op int64
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t0 := c.tr.begin()
	n, err := c.Conn.Write(b)
	c.tr.end(c.tr.upWrite, t0, c.parent, c.op, int64(n))
	return n, err
}

func (c *tracedConn) TryRead(buf []byte) (int, error) {
	t0 := c.tr.begin()
	n, err := c.Conn.TryRead(buf)
	c.tr.end(c.tr.upRead, t0, c.parent, c.op, int64(n))
	return n, err
}

// tracedRoundTripper is the client end of the collector path: one span
// per HTTP request, its id sent along so the server-side span can name
// it as parent.
type tracedRoundTripper struct {
	next http.RoundTripper
	tr   *tracer
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	k := rt.tr.clientUpload
	if req.Method == http.MethodGet {
		k = rt.tr.clientStats
	}
	// The parent id has to travel before the span ends, so it is
	// reserved here and the span recorded under it afterwards.
	id := rt.tr.nextID.Add(1)
	req.Header.Set(spanHeaderParent, strconv.FormatInt(id, 10))
	t0 := rt.tr.begin()
	resp, err := rt.next.RoundTrip(req)
	rt.tr.endAs(k, t0, id, 0, id, 1)
	return resp, err
}

// tracedHandler is the server end: one span per request around the
// collector's ServeHTTP, child of the client span named in the header.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k := h.tr.handlerSpan
	if r.Method == http.MethodGet {
		k = h.tr.handlerStats
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeaderParent), 10, 64)
	t0 := h.tr.begin()
	h.next.ServeHTTP(w, r)
	h.tr.end(k, t0, parent, parent, 1)
}

// traceFile is the on-disk form: exact totals per span name plus the
// first rawSpansPerKind spans of each.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Note     string      `json:"note"`
	Kinds    []traceKind `json:"kinds"`
}

type traceKind struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	Units   int64  `json:"units"`
	Spans   []span `json:"first_spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	f := traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     "count/total_ns/units are exact over the traced timed section; first_spans keeps only the first " + strconv.Itoa(rawSpansPerKind) + " spans per name",
	}
	for _, k := range t.kinds() {
		k.mu.Lock()
		f.Kinds = append(f.Kinds, traceKind{Name: k.name, Count: k.count.Load(), TotalNS: k.ns.Load(), Units: k.units.Load(), Spans: k.raw})
		k.mu.Unlock()
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
