// Command collectord is the crowdsourcing collector server: the wire
// endpoint MopEye phones upload their measurement batches to (§4
// deployment shape). It authenticates device stamps (and a shared
// token when configured), deduplicates batches on their idempotency
// keys, appends accepted batches to a durable spool (one append-only
// file, DIR/batches.jsonl), maintains streaming per-app/per-network
// quantile sketches, and serves the assembled dataset back as JSONL.
//
// Endpoints: POST /v1/upload (batch wire encoding), GET /v1/records
// (JSONL dump; 404 with -retain-records=false), GET /v1/stats
// (sketched aggregates, O(1) in dataset size), GET /healthz, and —
// with -metrics — GET /metrics (Prometheus text exposition: upload
// counters, dedup hits, spool bytes, per-shard record skew, sketched
// per-network RTT summaries).
//
// Usage:
//
//	collectord [-addr 127.0.0.1:8477] [-spool DIR] [-token T]
//	           [-retain-records=BOOL] [-metrics]
//
// It is one crowd.Server: ingest is sharded 16 ways by device-stamp
// hash inside the process, over one spool. Feed it from a phone
// (`mopeye -upload http://127.0.0.1:8477`) or a fleet, then analyse
// with `crowdstudy -serve http://127.0.0.1:8477` (live) or
// `crowdstudy -spool DIR` (offline). A DIR in a layout only removed
// code wrote — shard-NNN/ subdirectories (`collectord -shards N`),
// batches-NNNNNN.jsonl segments, or a compacted.keys file — is refused
// with the fix in the error, never opened empty or partial. So is a
// spool file whose middle does not decode: only a torn tail is healed.
//
// A connection that does not deliver its request headers within
// readHeaderTimeout, or its whole request within readTimeout, is
// closed, and an idle keep-alive connection after idleTimeout — a
// slow client cannot pin a goroutine and a descriptor.
//
// SIGINT/SIGTERM shut the collector down gracefully: the listener
// stops accepting, in-flight uploads drain (their commits and spool
// appends complete), and the spool closes at a batch boundary — a
// restart replays it intact.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/crowd"
)

// config is the parsed command line.
type config struct {
	addr          string
	spool         string
	token         string
	retainRecords bool
	metrics       bool
}

// parseFlags parses the command line (without running anything), so
// flag handling is unit-testable.
func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("collectord", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8477", "listen address")
	fs.StringVar(&c.spool, "spool", "", "durable spool directory (empty = memory only)")
	fs.StringVar(&c.token, "token", "", "shared bearer token required on every request (empty = open)")
	fs.BoolVar(&c.retainRecords, "retain-records", true, "keep raw records in memory and serve /v1/records (false = sketched aggregates only, bounded memory)")
	fs.BoolVar(&c.metrics, "metrics", false, "serve GET /metrics (Prometheus text exposition; token-exempt like /healthz)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return c, nil
}

// serverOptions maps the command line onto crowd.ServerOptions.
func (c config) serverOptions() crowd.ServerOptions {
	retain := crowd.RetainDefault
	if !c.retainRecords {
		retain = crowd.RetainOff
	}
	return crowd.ServerOptions{
		SpoolDir:      c.spool,
		Token:         c.token,
		RetainRecords: retain,
		ExposeMetrics: c.metrics,
	}
}

// drainTimeout bounds the graceful-shutdown drain; connections still
// alive after it are cut (their senders retry with the same
// idempotency key, so nothing is lost).
const drainTimeout = 5 * time.Second

// Connection timeouts. Variables only so a test can shorten them;
// nothing else writes them. readTimeout covers a whole request, so it
// must outlast the largest body (8 MiB) on the slowest link served.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve runs the collector on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, drain in-flight uploads (commits
// and spool appends complete), close the spool at a batch boundary,
// and print the final tally to out. Factored out of main so the
// interrupted-restart path is testable in-process.
func serve(ctx context.Context, c config, ln net.Listener, out io.Writer) error {
	srv, err := crowd.NewServer(c.serverOptions())
	if err != nil {
		return err
	}
	if st := srv.Stats(); st.Batches > 0 {
		log.Printf("replayed spool: %d batches, %d records", st.Batches, st.Records)
	}
	log.Printf("collectord listening on http://%s (spool %q, retain-records %v, metrics %v)",
		ln.Addr(), c.spool, c.retainRecords, c.metrics)

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			// Drain expired: cut the stragglers. Their uploads were not
			// acknowledged, so the transport's retry redelivers them.
			hs.Close()
		}
		<-serveErr // always http.ErrServerClosed after Shutdown/Close
	case err := <-serveErr:
		// Listener failure, not a shutdown: still close the spool
		// cleanly before reporting.
		srv.Close()
		return err
	}

	closeErr := srv.Close()
	st := srv.Stats()
	fmt.Fprintf(out, "collected %d records in %d batches (%d duplicates absorbed, %d auth failures, %d bad requests)\n",
		st.Records, st.Batches, st.Duplicates, st.AuthFailures, st.BadRequests)
	return closeErr
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, c, ln, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
