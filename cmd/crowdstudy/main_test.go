package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/mopeye"
)

// The -spool path analyses exactly what a collector accepted: records
// uploaded over HTTP to a spooled crowd.Server, read back from the
// spool by buildStudy, give the same §4.2 report as NewStudyFrom over
// the records as they were uploaded, in upload order.
func TestBuildStudyFromSpoolMatchesUploads(t *testing.T) {
	dir := t.TempDir()
	srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Batches of up to 32 records, each of one device, in the order the
	// generator's records fill them.
	var uploaded []measure.Record
	pending := map[string][]measure.Record{}
	seqs := map[string]int{}
	upload := func(dev string) {
		seqs[dev]++
		b := measure.Batch{Device: dev, Epoch: "e1", Key: fmt.Sprintf("%s/%d", dev, seqs[dev]), Seq: seqs[dev], Records: pending[dev]}
		var body bytes.Buffer
		if err := measure.EncodeBatch(&body, b); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(crowd.DeviceHeader, dev)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %s: %s", b.Key, resp.Status)
		}
		uploaded = append(uploaded, b.Records...)
		delete(pending, dev)
	}
	var order []string // devices in first-seen order, so the last flush is deterministic
	for _, r := range crowd.Generate(crowd.Config{Scale: 0.001, Seed: 7}).Records {
		if _, ok := seqs[r.Device]; !ok {
			seqs[r.Device] = 0
			order = append(order, r.Device)
		}
		pending[r.Device] = append(pending[r.Device], r)
		if len(pending[r.Device]) == 32 {
			upload(r.Device)
		}
	}
	for _, dev := range order {
		if len(pending[dev]) > 0 {
			upload(dev)
		}
	}
	if st := srv.Stats(); st.Records != len(uploaded) || len(uploaded) == 0 {
		t.Fatalf("collector accepted %d records, %d were uploaded", st.Records, len(uploaded))
	}

	study, err := buildStudy(0, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(study.Dataset().Records); got != len(uploaded) {
		t.Fatalf("-spool read %d records, %d were uploaded", got, len(uploaded))
	}
	if got, want := study.ReportAll(), mopeye.NewStudyFrom(uploaded).ReportAll(); got != want {
		t.Errorf("-spool report differs from the report over the uploaded records:\n got %s\nwant %s", got, want)
	}
}
