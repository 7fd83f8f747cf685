package mopeye

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
)

// fleetRoster builds a deliberately heterogeneous 8-phone fleet: every
// phone has its own RTT profile, app mix, seed, worker count and
// workload size, so the e2e test exercises the scenario layer rather
// than 8 clones.
func fleetRoster(t *testing.T, phones int) []FleetPhone {
	t.Helper()
	out := make([]FleetPhone, phones)
	for i := 0; i < phones; i++ {
		i := i
		addr := fmt.Sprintf("198.51.100.%d:443", 100+i)
		uid := 40001 + i
		pkg := fmt.Sprintf("com.fleet.app%d", i%3) // app mixes overlap across phones
		conns := 2 + i%3
		out[i] = FleetPhone{
			Device: fmt.Sprintf("phone-%02d", i+1),
			Options: Options{
				Servers:          []Server{{Domain: fmt.Sprintf("svc%d.example", i), Addr: addr, RTTMillis: float64(5 + 7*i)}},
				DefaultRTTMillis: float64(10 + i),
				Workers:          1 + i%2,
				Seed:             int64(100 + i),
			},
			Apps: map[int]string{uid: pkg},
			Workload: func(ctx context.Context, p *Phone) error {
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

// jsonlBytes canonicalises and serialises records for byte-level
// comparison.
func jsonlBytes(t *testing.T, recs []Measurement) []byte {
	t.Helper()
	sorted := append([]measure.Record(nil), recs...)
	measure.SortCanonical(sorted)
	var buf bytes.Buffer
	if err := measure.WriteJSONL(&buf, sorted); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance e2e: 8 phones → HTTPTransport → collector server →
// Study() is record-identical to in-process crowd.Ingest over the
// phones' own device-stamped measurements — under injected 503s, a
// stall, and commit-then-fail duplicate deliveries. Exactly-once after
// dedup, and no record lost between a phone's store and its uploads.
func TestFleetE2EHTTPMatchesInProcess(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{Token: "fleet-secret"})
	if err != nil {
		t.Fatal(err)
	}
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

	fleet, err := NewFleet(FleetOptions{
		Phones:    fleetRoster(t, 8),
		Transport: transport,
		Collector: CollectorOptions{BatchSize: 3}, // small batches: many wire trips
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(context.Background()); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := transport.Close(); err != nil {
		t.Fatalf("transport close: %v", err)
	}

	st := fleet.Stats()
	if st.Failed != 0 || st.Phones != 8 {
		t.Fatalf("fleet stats: %+v (statuses %+v)", st, fleet.PhoneStatuses())
	}
	if st.Records == 0 || st.Uploads < 8 {
		t.Fatalf("fleet produced too little: %+v", st)
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

	// Exactly-once: the server's dataset is byte-identical to the
	// phones' merged measurements under canonical order.
	local := fleet.Records()
	remote := srv.Records()
	if len(remote) != len(local) {
		t.Fatalf("server holds %d records, the phones recorded %d", len(remote), len(local))
	}
	lb, rb := jsonlBytes(t, local), jsonlBytes(t, remote)
	if !bytes.Equal(lb, rb) {
		t.Fatal("server dataset diverges from the fleet's records")
	}

	// And the study pipelines agree: Study() over the wire-delivered
	// dataset ≡ in-process crowd.Ingest over the phones' records.
	sorted := append([]measure.Record(nil), remote...)
	measure.SortCanonical(sorted)
	viaWire := NewStudyFrom(sorted).ReportAll()
	inProc := (&Study{}).reportFromIngest(crowd.Ingest(fleet.Records()))
	if viaWire != inProc {
		t.Error("§4.2 analysis diverges between wire-delivered and in-process datasets")
	}

	// Every device contributed and is visible to the analysis.
	ds := srv.Ingest()
	for i := 1; i <= 8; i++ {
		id := fmt.Sprintf("phone-%02d", i)
		if ds.DeviceByID(id) == nil {
			t.Errorf("device %s missing from ingested dataset", id)
		}
	}
}

// reportFromIngest runs ReportAll over an already-built dataset.
func (s *Study) reportFromIngest(ds *crowd.Dataset) string {
	return (&Study{ds: ds}).ReportAll()
}

// Fleet validation and error surfacing: a failing phone is reported by
// device, the rest of the fleet completes.
func TestFleetPerPhoneErrorSurfacing(t *testing.T) {
	if _, err := NewFleet(FleetOptions{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet(FleetOptions{Phones: []FleetPhone{{Device: "x"}}}); err == nil {
		t.Error("workload-less phone accepted")
	}
	if _, err := NewFleet(FleetOptions{Phones: []FleetPhone{{
		Workload: func(context.Context, *Phone) error { return nil },
	}}}); err == nil {
		t.Error("stampless phone accepted")
	}

	boom := errors.New("boom")
	ok := func(ctx context.Context, p *Phone) error { return nil }
	fleet, err := NewFleet(FleetOptions{
		Phones: []FleetPhone{
			{Device: "good-1", Options: Options{Loopback: true}, Workload: ok},
			{Device: "bad", Options: Options{Loopback: true},
				Workload: func(ctx context.Context, p *Phone) error { return boom }},
			{Device: "good-2", Options: Options{Loopback: true}, Workload: ok},
		},
		Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = fleet.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("fleet error: %v", err)
	}
	st := fleet.Stats()
	if st.Failed != 1 {
		t.Errorf("failed phones: %d", st.Failed)
	}
	for _, ps := range fleet.PhoneStatuses() {
		wantErr := ps.Device == "bad"
		if (ps.Err != nil) != wantErr {
			t.Errorf("phone %s err = %v", ps.Device, ps.Err)
		}
	}
	// Run is once-only.
	if err := fleet.Run(context.Background()); err == nil {
		t.Error("second Run accepted")
	}
}

// A device-stamp collision across two phones must not dedup away
// either phone's uploads: keys stay unique per collector, and the
// analysis merges the records into one device.
func TestFleetDeviceStampCollision(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	transport := NewHTTPTransport(ts.URL, HTTPTransportOptions{})

	uid := 50001
	mk := func(seed int64) FleetPhone {
		addr := "198.51.100.200:443"
		return FleetPhone{
			Device: "shared-stamp",
			Options: Options{
				Servers: []Server{{Domain: "col.example", Addr: addr, RTTMillis: 8}},
				Seed:    seed,
			},
			Apps: map[int]string{uid: "com.fleet.shared"},
			Workload: func(ctx context.Context, p *Phone) error {
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
	fleet, err := NewFleet(FleetOptions{
		Phones:    []FleetPhone{mk(1), mk(2)},
		Transport: transport,
		Collector: CollectorOptions{BatchSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := transport.Close(); err != nil {
		t.Fatal(err)
	}
	ss := srv.Stats()
	if ss.Duplicates != 0 {
		t.Errorf("colliding stamps caused false dedup: %+v", ss)
	}
	local := fleet.Records()
	if ss.Records != len(local) {
		t.Errorf("server %d records, phones %d", ss.Records, len(local))
	}
	ds := srv.Ingest()
	d := ds.DeviceByID("shared-stamp")
	if d == nil || d.Activity != len(local) {
		t.Errorf("shared device not merged: %+v", d)
	}
}

// Fleet.Study feeds the phones' merged records into the analysis
// pipeline.
func TestFleetStudySmoke(t *testing.T) {
	fleet, err := NewFleet(FleetOptions{Phones: fleetRoster(t, 2), Collector: CollectorOptions{BatchSize: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := fleet.Study()
	// fleetRoster gives phone i 2+i%3 connections, one TCP RTT each.
	if got := len(st.Dataset().Records); got != 5 {
		t.Fatalf("study records: %d", got)
	}
	if len(st.Dataset().Devices) != 2 {
		t.Errorf("study devices: %d", len(st.Dataset().Devices))
	}
	if st.Summary() == "" {
		t.Error("empty summary")
	}
}

// Without a Transport the fleet attaches no Collector and uploads
// nothing; its records are the phones' own measurements, each stamped
// with its phone's Device.
func TestFleetWithoutTransport(t *testing.T) {
	roster := fleetRoster(t, 3)
	phones := make([]*Phone, len(roster))
	for i := range roster {
		workload := roster[i].Workload
		roster[i].Workload = func(ctx context.Context, p *Phone) error {
			phones[i] = p
			return workload(ctx, p)
		}
	}
	fleet, err := NewFleet(FleetOptions{Phones: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := fleet.Stats()
	if st.Uploads != 0 {
		t.Errorf("uploads without a transport: %d", st.Uploads)
	}
	want := 0
	for i, ps := range fleet.PhoneStatuses() {
		n := len(phones[i].Measurements())
		if ps.Records != n {
			t.Errorf("phone %s: status %d records, phone %d", ps.Device, ps.Records, n)
		}
		if n == 0 {
			t.Errorf("phone %s recorded nothing", ps.Device)
		}
		want += n
	}
	recs := fleet.Records()
	if len(recs) != want || st.Records != want {
		t.Errorf("fleet records %d, stats %d; the phones hold %d", len(recs), st.Records, want)
	}
	perDevice := map[string]int{}
	for _, r := range recs {
		perDevice[r.Device]++
	}
	for i, ps := range fleet.PhoneStatuses() {
		if perDevice[ps.Device] != len(phones[i].Measurements()) {
			t.Errorf("device %s: %d stamped records, phone holds %d",
				ps.Device, perDevice[ps.Device], len(phones[i].Measurements()))
		}
	}
}
