package mopeye

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
)

// This file is the upload side of the crowdsourcing API: the paper's
// phones batch measurements locally and upload them to the collector
// server over the network. Transport abstracts that hop so the
// Collector's policy (when to upload) is independent of the wire (how
// an upload travels): TransportFunc is an in-process hand-off,
// HTTPTransport is the real wire — JSONL-over-HTTP POST with
// exponential-backoff retry, per-batch idempotency keys, and a bounded
// in-flight queue so a dead collector can never block or OOM the
// phone (overflow drops are counted, the same contract as the
// subscriber rings).

// Batch is the unit of upload: one device's records under an
// idempotency key. See measure.Batch for the wire encoding.
type Batch = measure.Batch

// Transport ships one batch toward a collector. Upload must not
// block on the network: shipped implementations either enqueue
// (HTTPTransport) or run in-process (TransportFunc). Upload may be
// called concurrently by independent collectors (a Fleet shares one
// transport across all phones); retries of a batch reuse its Key, and
// a receiver deduplicating on Key sees each batch's records exactly
// once no matter how delivery misbehaves.
type Transport interface {
	Upload(ctx context.Context, b Batch) error
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(context.Context, Batch) error

// Upload calls f.
func (f TransportFunc) Upload(ctx context.Context, b Batch) error { return f(ctx, b) }

// ErrTransportClosed is returned by Upload after Close.
var ErrTransportClosed = errors.New("mopeye: transport closed")

// HTTPTransportOptions tunes an HTTPTransport.
type HTTPTransportOptions struct {
	// Client overrides the HTTP client; default is a client with a
	// 10-second per-attempt timeout.
	Client *http.Client
	// QueueSize bounds the in-flight batch queue. Uploads beyond it
	// are dropped and counted, never blocked on — a phone must keep
	// relaying when its collector is dead. Default 16.
	QueueSize int
	// MaxAttempts is the delivery attempts per batch (first try plus
	// retries). Default 6.
	MaxAttempts int
	// BackoffBase is the first retry delay, doubled per attempt up to
	// BackoffMax. Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Token is the collector's shared bearer token, when it requires
	// one.
	Token string
	// BlockOnFull makes Upload wait for queue space instead of dropping
	// — backpressure in place of the phone-side bounded-drop contract.
	// Load generators set it so every synthesized batch is delivered
	// and the collector's ingest rate is what gets measured; a real
	// phone must not (a dead collector would stall the relay).
	BlockOnFull bool
	// OnAttempt, when set, observes every delivery attempt: the
	// attempt's wall-clock duration and its error (nil on success).
	// Called from the uploader goroutine, sequentially per transport —
	// an implementation needs no locking unless shared across
	// transports. The load harness feeds upload-latency sketches here.
	OnAttempt func(time.Duration, error)

	// sleep is the backoff clock, overridable in tests.
	sleep func(time.Duration)
}

// HTTPTransportStats counts a transport's lifetime activity.
type HTTPTransportStats struct {
	// Uploaded batches were acknowledged by the collector.
	Uploaded uint64
	// Retried counts delivery attempts beyond each batch's first.
	Retried uint64
	// Dropped batches never entered the queue (queue full at Upload).
	Dropped uint64
	// Failed batches exhausted their attempts or hit a terminal error.
	Failed uint64
}

// HTTPTransport delivers batches to a collector server (crowd.Server /
// cmd/collectord) as HTTP POSTs of the batch wire encoding. Upload
// enqueues and returns; a single uploader goroutine drains the queue
// in order, retrying each batch with exponential backoff on 5xx and
// network errors. Retries reuse the batch's idempotency key, so the
// server's dedup converts the transport's at-least-once delivery into
// exactly-once records. Close delivers everything already queued
// (with retries), then returns the first terminal error, if any.
type HTTPTransport struct {
	url string
	o   HTTPTransportOptions

	queue chan Batch
	wg    sync.WaitGroup
	// enc is the uploader goroutine's encode buffer, reused from one
	// acknowledged batch to the next (see send).
	enc []byte

	// Upload sends under closeMu's read lock and Close closes the queue
	// under its write lock, so a send never races the close. stop,
	// closed first, releases an Upload waiting on a full queue so that
	// Close can take the write lock.
	closeMu   sync.RWMutex
	stop      chan struct{}
	closeOnce sync.Once

	mu  sync.Mutex
	err error

	uploaded atomic.Uint64
	retried  atomic.Uint64
	dropped  atomic.Uint64
	failed   atomic.Uint64
}

// NewHTTPTransport builds a transport POSTing to the collector at
// baseURL (the upload endpoint is baseURL + "/v1/upload") and starts
// its uploader.
func NewHTTPTransport(baseURL string, o HTTPTransportOptions) *HTTPTransport {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 16
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	t := &HTTPTransport{url: baseURL, o: o, queue: make(chan Batch, o.QueueSize), stop: make(chan struct{})}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for b := range t.queue {
			t.send(b)
		}
	}()
	return t
}

// Upload enqueues one batch. By default it never blocks: with the
// queue full the batch is dropped and counted
// (HTTPTransportStats.Dropped) — the bounded-drop contract that keeps
// a phone healthy when its collector is not. With BlockOnFull set it
// waits for queue space instead, returning ctx's error if ctx is done
// first and ErrTransportClosed if Close is called first. Returns
// ErrTransportClosed after Close.
func (t *HTTPTransport) Upload(ctx context.Context, b Batch) error {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	t.closeMu.RLock()
	defer t.closeMu.RUnlock()
	select {
	case <-t.stop:
		return ErrTransportClosed
	default:
	}
	if !t.o.BlockOnFull {
		select {
		case t.queue <- b:
		default:
			t.dropped.Add(1)
		}
		return nil
	}
	select {
	case t.queue <- b:
		return nil
	case <-done:
		return ctx.Err()
	case <-t.stop:
		return ErrTransportClosed
	}
}

// send delivers one batch with retries; terminal failures are counted
// and recorded as the transport's first error.
func (t *HTTPTransport) send(b Batch) {
	// While a batch is in flight its encoding is not in t.enc: net/http
	// may still be writing a request body after a failed attempt has
	// returned (a server can answer before it has read everything), so
	// the buffer is only taken back below, when the collector
	// acknowledged the first attempt — which it does after reading the
	// whole body. Any other batch's buffer is left to the garbage
	// collector.
	raw := measure.AppendBatch(t.enc[:0], b)
	t.enc = nil
	backoff := t.o.BackoffBase
	var lastErr error
	for attempt := 0; attempt < t.o.MaxAttempts; attempt++ {
		if attempt > 0 {
			t.retried.Add(1)
			t.o.sleep(backoff)
			backoff *= 2
			if backoff > t.o.BackoffMax {
				backoff = t.o.BackoffMax
			}
		}
		attemptStart := time.Now()
		retryable, err := t.post(b, raw)
		if t.o.OnAttempt != nil {
			t.o.OnAttempt(time.Since(attemptStart), err)
		}
		if err == nil {
			t.uploaded.Add(1)
			if attempt == 0 {
				t.enc = raw
			}
			return
		}
		lastErr = err
		if !retryable {
			t.fail(fmt.Errorf("mopeye: batch %q: %w", b.Key, err))
			return
		}
	}
	t.fail(fmt.Errorf("mopeye: batch %q: giving up after %d attempts: %w", b.Key, t.o.MaxAttempts, lastErr))
}

// post performs one delivery attempt, reporting whether a failure is
// worth retrying (5xx, timeouts, connection errors) or terminal (4xx:
// bad auth, bad batch — the same bytes will fail again).
func (t *HTTPTransport) post(b Batch, raw []byte) (retryable bool, err error) {
	req, err := http.NewRequest(http.MethodPost, t.url+"/v1/upload", bytes.NewReader(raw))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", measure.BatchContentType)
	req.Header.Set(crowd.DeviceHeader, b.Device)
	if t.o.Token != "" {
		req.Header.Set("Authorization", "Bearer "+t.o.Token)
	}
	resp, err := t.o.Client.Do(req)
	if err != nil {
		return true, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return false, nil
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusRequestTimeout:
		return true, fmt.Errorf("collector answered %s", resp.Status)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return false, fmt.Errorf("collector rejected upload: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

func (t *HTTPTransport) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Close stops accepting batches, delivers everything already queued
// (retries included), and returns the transport's first terminal
// error. Safe to call more than once.
func (t *HTTPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.stop)
		t.closeMu.Lock()
		close(t.queue)
		t.closeMu.Unlock()
	})
	t.wg.Wait()
	return t.Err()
}

// Err reports the transport's first terminal error (nil while
// deliveries are still succeeding or retrying).
func (t *HTTPTransport) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// FetchCollectorStats retrieves a collector's sketched aggregate
// document (GET /v1/stats) — the read half of the wire API, O(sketch)
// on the server however large its dataset. client nil uses a
// 10-second-timeout default; token may be empty.
func FetchCollectorStats(client *http.Client, baseURL, token string) (crowd.Summary, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return crowd.Summary{}, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return crowd.Summary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return crowd.Summary{}, fmt.Errorf("mopeye: collector stats: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sum crowd.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return crowd.Summary{}, fmt.Errorf("mopeye: collector stats: %w", err)
	}
	return sum, nil
}

// Stats snapshots the transport counters.
func (t *HTTPTransport) Stats() HTTPTransportStats {
	return HTTPTransportStats{
		Uploaded: t.uploaded.Load(),
		Retried:  t.retried.Load(),
		Dropped:  t.dropped.Load(),
		Failed:   t.failed.Load(),
	}
}
