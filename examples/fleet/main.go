// Example fleet runs the paper's deployment shape end to end, in one
// process: a collector server (the same handler cmd/collectord
// serves), several phones with heterogeneous network profiles, each
// with its own Collector uploading over one shared HTTP transport —
// batched, idempotency-keyed, retried — and the §4.2 analysis run
// against what the server actually received, read back from its spool.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/crowd"
	"repro/mopeye"
)

func main() {
	phones := flag.Int("phones", 4, "number of phones")
	conns := flag.Int("conns", 6, "connections per phone")
	flag.Parse()

	// The collector side: cmd/collectord in miniature. The server keeps
	// only sketches; the records live in its spool.
	spool, err := os.MkdirTemp("", "fleet-spool-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spool)
	srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: spool})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	transport := mopeye.NewHTTPTransport(ts.URL, mopeye.HTTPTransportOptions{})

	// The phone side: each phone has its own RTT profile and seed, and
	// its own Collector shipping through the shared transport.
	records, uploads := 0, 0
	for i := 0; i < *phones; i++ {
		addr := fmt.Sprintf("203.0.113.%d:443", 100+i)
		uid := 10001 + i
		phone, err := mopeye.New(mopeye.Options{
			Servers: []mopeye.Server{{
				Domain:    fmt.Sprintf("api%d.example.com", i),
				Addr:      addr,
				RTTMillis: float64(20 + 15*i),
			}},
			Seed: int64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		col := mopeye.NewCollector(mopeye.CollectorOptions{
			Device:    fmt.Sprintf("example-phone-%d", i+1),
			Transport: transport,
			BatchSize: 8,
		})
		attached, err := phone.Attach(col)
		if err != nil {
			log.Fatal(err)
		}
		phone.InstallApp(uid, fmt.Sprintf("com.example.app%d", i))
		for c := 0; c < *conns; c++ {
			conn, err := phone.Connect(uid, addr)
			if err != nil {
				log.Fatal(err)
			}
			conn.Write([]byte("hello"))
			conn.Close()
		}
		// Close flushes the collector's final batch.
		phone.Close()
		if err := attached.Err(); err != nil {
			log.Fatal(err)
		}
		records += len(phone.Measurements())
		uploads += col.Uploads()
	}
	if err := transport.Close(); err != nil {
		log.Fatal(err)
	}

	ss := srv.Stats()
	fmt.Printf("phones: %d uploaded %d records in %d batches over HTTP\n",
		*phones, records, uploads)
	fmt.Printf("collector server: %d records in %d batches (%d duplicates absorbed)\n\n",
		ss.Records, ss.Batches, ss.Duplicates)
	if ss.Records != records {
		log.Fatalf("server accepted %d records, the phones uploaded %d", ss.Records, records)
	}
	recs, err := crowd.ReadSpool(spool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mopeye.NewStudyFrom(recs).Summary())
}
