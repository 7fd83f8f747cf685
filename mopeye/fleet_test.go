package mopeye

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
)

// fleetPhone is one phone of a test fleet: its device stamp, its
// options, the apps to install and the traffic it runs.
type fleetPhone struct {
	device string
	opts   Options
	apps   map[int]string
	work   func(p *Phone) error
}

// fleetRoster builds a deliberately heterogeneous fleet: every phone
// has its own RTT profile, app mix, seed, worker count and workload
// size, so the e2e test exercises the paper's deployment shape rather
// than 8 clones.
func fleetRoster(phones int) []fleetPhone {
	out := make([]fleetPhone, phones)
	for i := range out {
		addr := fmt.Sprintf("198.51.100.%d:443", 100+i)
		uid := 40001 + i
		conns := 2 + i%3
		out[i] = fleetPhone{
			device: fmt.Sprintf("phone-%02d", i+1),
			opts: Options{
				Servers:          []Server{{Domain: fmt.Sprintf("svc%d.example", i), Addr: addr, RTTMillis: float64(5 + 7*i)}},
				DefaultRTTMillis: float64(10 + i),
				Workers:          1 + i%2,
				Seed:             int64(100 + i),
			},
			apps: map[int]string{uid: fmt.Sprintf("com.fleet.app%d", i%3)}, // app mixes overlap across phones
			work: func(p *Phone) error {
				for c := 0; c < conns; c++ {
					conn, err := p.Connect(uid, addr)
					if err != nil {
						return err
					}
					if _, err := conn.Write([]byte("ping")); err != nil {
						conn.Close()
						return err
					}
					buf := make([]byte, 4)
					if err := conn.ReadFull(buf); err != nil {
						conn.Close()
						return err
					}
					conn.Close()
				}
				return nil
			},
		}
	}
	return out
}

// runFleet runs every phone of the roster concurrently, each with its
// own Collector uploading through the one shared transport — the
// paper's fan-in. It returns the phones' own measurements, stamped
// with their devices, in canonical order (what a lossless upload
// delivers), and the number of batches their collectors shipped.
func runFleet(t *testing.T, roster []fleetPhone, tr Transport, batchSize int) ([]Measurement, int) {
	t.Helper()
	recs := make([][]Measurement, len(roster))
	uploads := make([]int, len(roster))
	var wg sync.WaitGroup
	for i, fp := range roster {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := New(fp.opts)
			if err != nil {
				t.Errorf("phone %s: %v", fp.device, err)
				return
			}
			col := NewCollector(CollectorOptions{Device: fp.device, Transport: tr, BatchSize: batchSize})
			att, err := p.Attach(col)
			if err != nil {
				p.Close()
				t.Errorf("phone %s: %v", fp.device, err)
				return
			}
			for uid, pkg := range fp.apps {
				p.InstallApp(uid, pkg)
			}
			werr := fp.work(p)
			p.Close() // flushes the collector's final batch
			if werr != nil {
				t.Errorf("phone %s: %v", fp.device, werr)
			}
			if err := att.Err(); err != nil {
				t.Errorf("phone %s collector: %v", fp.device, err)
			}
			recs[i] = p.Measurements()
			for j := range recs[i] {
				if recs[i][j].Device == "" {
					recs[i][j].Device = fp.device
				}
			}
			uploads[i] = col.Uploads()
		}()
	}
	wg.Wait()
	var all []Measurement
	total := 0
	for i := range roster {
		all = append(all, recs[i]...)
		total += uploads[i]
	}
	sortCanonical(t, all)
	return all, total
}

// sortCanonical orders records by their JSON Lines encoding, which
// carries every field, so two permutations of the same records come
// out in one order (and crowd.Ingest numbers their devices alike).
func sortCanonical(t *testing.T, recs []measure.Record) {
	t.Helper()
	type keyed struct {
		line string
		r    measure.Record
	}
	ks := make([]keyed, len(recs))
	for i, r := range recs {
		var b bytes.Buffer
		if err := measure.WriteJSONL(&b, []measure.Record{r}); err != nil {
			t.Fatal(err)
		}
		ks[i] = keyed{b.String(), r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].line < ks[j].line })
	for i := range ks {
		recs[i] = ks[i].r
	}
}

// jsonlBytes canonicalises and serialises records for byte-level
// comparison.
func jsonlBytes(t *testing.T, recs []Measurement) []byte {
	t.Helper()
	sorted := append([]measure.Record(nil), recs...)
	sortCanonical(t, sorted)
	var buf bytes.Buffer
	if err := measure.WriteJSONL(&buf, sorted); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance e2e: 8 phones, one Collector each → one shared
// HTTPTransport → collector server; the §4.2 analysis over what the
// server's spool holds is record-identical to in-process crowd.Ingest
// over the phones' own device-stamped measurements — under injected
// 503s, a stall, and commit-then-fail duplicate deliveries. Exactly-once
// after dedup, and no record lost between a phone's store and the
// durable copy.
func TestFleetE2EHTTPMatchesInProcess(t *testing.T) {
	spool := t.TempDir()
	srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: spool, Token: "fleet-secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Fault injection: the first upload waves hit refusals, stalls and
	// duplicate deliveries before the wire heals.
	flaky := &flakyHandler{inner: srv, script: []string{
		"503", "dup", "hang", "503", "dup", "503",
	}}
	ts := httptest.NewServer(flaky)
	defer ts.Close()
	transport := NewHTTPTransport(ts.URL, HTTPTransportOptions{
		Client:      &http.Client{Timeout: 50 * time.Millisecond},
		Token:       "fleet-secret",
		QueueSize:   64,
		MaxAttempts: 12, // the script can throw 6 consecutive faults at one batch
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})

	// Small batches: many wire trips.
	local, uploads := runFleet(t, fleetRoster(8), transport, 3)
	if err := transport.Close(); err != nil {
		t.Fatalf("transport close: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(local) == 0 || uploads < 8 {
		t.Fatalf("fleet produced too little: %d records, %d uploads", len(local), uploads)
	}
	tstats := transport.Stats()
	if tstats.Dropped != 0 || tstats.Failed != 0 {
		t.Fatalf("transport lost batches: %+v", tstats)
	}
	if tstats.Retried == 0 {
		t.Error("fault injection never forced a retry")
	}
	ss := srv.Stats()
	if ss.Duplicates == 0 {
		t.Error("fault injection never exercised dedup")
	}

	// Exactly-once: the spooled dataset is byte-identical to the
	// phones' merged measurements under canonical order.
	remote, err := crowd.ReadSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("spool holds %d records, the phones recorded %d", len(remote), len(local))
	}
	if !bytes.Equal(jsonlBytes(t, local), jsonlBytes(t, remote)) {
		t.Fatal("server dataset diverges from the phones' records")
	}

	// And the study pipelines agree: the analysis over the
	// wire-delivered dataset ≡ in-process crowd.Ingest over the phones'
	// records.
	sorted := append([]measure.Record(nil), remote...)
	sortCanonical(t, sorted)
	viaWire := NewStudyFrom(sorted).ReportAll()
	inProc := (&Study{ds: crowd.Ingest(local)}).ReportAll()
	if viaWire != inProc {
		t.Error("§4.2 analysis diverges between wire-delivered and in-process datasets")
	}

	// Every device contributed and is visible to the analysis.
	ds := crowd.Ingest(remote)
	for i := 1; i <= 8; i++ {
		id := fmt.Sprintf("phone-%02d", i)
		if deviceByID(ds, id) == nil {
			t.Errorf("device %s missing from ingested dataset", id)
		}
	}
}

// A device-stamp collision across two phones must not dedup away
// either phone's uploads: keys stay unique per collector, and the
// analysis merges the records into one device.
func TestFleetDeviceStampCollision(t *testing.T) {
	spool := t.TempDir()
	srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	transport := NewHTTPTransport(ts.URL, HTTPTransportOptions{})

	uid := 50001
	addr := "198.51.100.200:443"
	mk := func(seed int64) fleetPhone {
		return fleetPhone{
			device: "shared-stamp",
			opts: Options{
				Servers: []Server{{Domain: "col.example", Addr: addr, RTTMillis: 8}},
				Seed:    seed,
			},
			apps: map[int]string{uid: "com.fleet.shared"},
			work: func(p *Phone) error {
				for c := 0; c < 3; c++ {
					conn, err := p.Connect(uid, addr)
					if err != nil {
						return err
					}
					conn.Close()
				}
				return nil
			},
		}
	}
	local, _ := runFleet(t, []fleetPhone{mk(1), mk(2)}, transport, 2)
	if err := transport.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	ss := srv.Stats()
	if ss.Duplicates != 0 {
		t.Errorf("colliding stamps caused false dedup: %+v", ss)
	}
	if ss.Records != len(local) {
		t.Errorf("server %d records, phones %d", ss.Records, len(local))
	}
	remote, err := crowd.ReadSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	ds := crowd.Ingest(remote)
	d := deviceByID(ds, "shared-stamp")
	if d == nil || d.Activity != len(local) {
		t.Errorf("shared device not merged: %+v", d)
	}
}

// deviceByID finds a device in ds, or nil.
func deviceByID(ds *crowd.Dataset, id string) *crowd.Device {
	for _, d := range ds.Devices {
		if d.ID == id {
			return d
		}
	}
	return nil
}
