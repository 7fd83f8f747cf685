package crowd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
)

func srvRec(dev, app string, ms float64) measure.Record {
	return measure.Record{
		Kind: measure.KindTCP, App: app, UID: 10001,
		Dst:    netip.MustParseAddrPort("203.0.113.7:443"),
		RTT:    time.Duration(ms * float64(time.Millisecond)),
		At:     time.Unix(0, 0).UTC(),
		Device: dev,
	}
}

func srvBatch(dev, key string, seq int, recs ...measure.Record) measure.Batch {
	return measure.Batch{Device: dev, Key: key, Seq: seq, Records: recs}
}

// postBatch uploads one batch, returning the response.
func postBatch(t *testing.T, ts *httptest.Server, token string, b measure.Batch, devHeader string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := measure.EncodeBatch(&body, b); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", measure.BatchContentType)
	if devHeader != "" {
		req.Header.Set(DeviceHeader, devHeader)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServerAcceptAndDedup(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	b := srvBatch("p1", "p1/k/1", 1, srvRec("", "com.app", 10), srvRec("", "com.app", 20))
	if resp := postBatch(t, ts, "", b, "p1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("accept: %s", resp.Status)
	}
	// Redelivery of the same key is absorbed.
	if resp := postBatch(t, ts, "", b, "p1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("redelivery: %s", resp.Status)
	}
	st := s.Stats()
	if st.Batches != 1 || st.Duplicates != 1 || st.Records != 2 {
		t.Errorf("stats: %+v", st)
	}
	recs := s.Records()
	if len(recs) != 2 {
		t.Fatalf("records: %d", len(recs))
	}
	for _, r := range recs {
		if r.Device != "p1" {
			t.Errorf("server did not stamp device: %+v", r)
		}
	}
	if ds := s.Ingest(); ds.DeviceByID("p1") == nil {
		t.Error("ingest lost the device")
	}
}

func TestServerAuth(t *testing.T) {
	s, err := NewServer(ServerOptions{Token: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	b := srvBatch("p1", "k1", 1, srvRec("", "a", 1))

	if resp := postBatch(t, ts, "wrong", b, "p1"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token: %s", resp.Status)
	}
	if resp := postBatch(t, ts, "secret", b, ""); resp.StatusCode != http.StatusForbidden {
		t.Errorf("missing device header: %s", resp.Status)
	}
	if resp := postBatch(t, ts, "secret", b, "someone-else"); resp.StatusCode != http.StatusForbidden {
		t.Errorf("device mismatch: %s", resp.Status)
	}
	if resp := postBatch(t, ts, "secret", b, "p1"); resp.StatusCode != http.StatusOK {
		t.Errorf("honest upload: %s", resp.Status)
	}
	st := s.Stats()
	if st.AuthFailures != 3 || st.Batches != 1 {
		t.Errorf("stats: %+v", st)
	}
	// The records endpoint is behind the same token.
	resp, err := ts.Client().Get(ts.URL + "/v1/records")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated records read: %s", resp.Status)
	}
	// The health probe is exempt: liveness checkers carry no token.
	authBefore := s.Stats().AuthFailures
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tokenless health probe: %s", resp.Status)
	}
	if got := s.Stats().AuthFailures; got != authBefore {
		t.Errorf("health probe counted as auth failure: %d -> %d", authBefore, got)
	}
}

func TestServerBadBatch(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload", strings.NewReader("not a batch"))
	req.Header.Set(DeviceHeader, "p1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: %s", resp.Status)
	}
	if st := s.Stats(); st.BadRequests != 1 || st.Batches != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// The upload body bound is forced: a well-formed batch one byte over
// maxBatchBytes is answered 413, counts one bad request, commits
// nothing and spools nothing; the same batch one byte shorter is
// accepted, so the bound is exactly where the constant says.
func TestServerUploadBodyCap(t *testing.T) {
	s, err := NewServer(ServerOptions{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// body encodes one single-record batch of exactly n bytes, padded
	// through the record's app name.
	body := func(n int) []byte {
		t.Helper()
		var probe bytes.Buffer
		if err := measure.EncodeBatch(&probe, srvBatch("p1", "big", 1, srvRec("", "", 1))); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		b := srvBatch("p1", "big", 1, srvRec("", strings.Repeat("x", n-probe.Len()), 1))
		if err := measure.EncodeBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != n {
			t.Fatalf("built a %d-byte body, want %d", buf.Len(), n)
		}
		return buf.Bytes()
	}
	post := func(raw []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(raw))
		req.Header.Set(DeviceHeader, "p1")
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		return rr
	}

	if rr := post(body(maxBatchBytes + 1)); rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: %d, want 413", rr.Code)
	}
	if st := s.Stats(); st.BadRequests != 1 || st.Batches != 0 || st.Records != 0 {
		t.Errorf("stats after oversize upload: %+v", st)
	}
	if s.DedupKeys() != 0 {
		t.Error("oversize upload left a dedup key")
	}
	if sp := s.spool.Stats(); sp.Bytes != 0 {
		t.Errorf("oversize upload reached the spool: %+v", sp)
	}

	if rr := post(body(maxBatchBytes)); rr.Code != http.StatusOK {
		t.Fatalf("body exactly at the cap: %d: %s", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.BadRequests != 1 || st.Batches != 1 {
		t.Errorf("stats after at-cap upload: %+v", st)
	}
}

// The records endpoint serves exactly the accepted dataset as JSONL.
func TestServerRecordsEndpoint(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postBatch(t, ts, "", srvBatch("p1", "k1", 1, srvRec("", "a", 1)), "p1")
	postBatch(t, ts, "", srvBatch("p2", "k2", 1, srvRec("", "b", 2)), "p2")

	resp, err := ts.Client().Get(ts.URL + "/v1/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := measure.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Records()
	if len(got) != len(want) {
		t.Fatalf("served %d records, hold %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// A spool-backed server survives a restart: records, and the dedup
// keys, replay from disk.
func TestServerSpoolRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	postBatch(t, ts1, "", srvBatch("p1", "k1", 1, srvRec("", "a", 1), srvRec("", "a", 2)), "p1")
	postBatch(t, ts1, "", srvBatch("p1", "k2", 2, srvRec("", "a", 3)), "p1")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if st := s2.Stats(); st.Batches != 2 || st.Records != 3 {
		t.Fatalf("replayed stats: %+v", st)
	}
	// A key accepted before the restart still dedups after it.
	postBatch(t, ts2, "", srvBatch("p1", "k1", 1, srvRec("", "a", 1), srvRec("", "a", 2)), "p1")
	if st := s2.Stats(); st.Duplicates != 1 || st.Records != 3 {
		t.Errorf("post-restart dedup: %+v", st)
	}
	// ReadSpool (the offline crowdstudy path) sees the same dataset.
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("offline spool read: %d records", len(recs))
	}
}

// A crash-truncated batch at the spool tail is dropped at replay, the
// file is healed, and the retried batch is accepted again.
func TestSpoolPartialTail(t *testing.T) {
	dir := t.TempDir()
	spool, _, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := srvBatch("p1", "k-good", 1, srvRec("p1", "a", 1))
	if err := spool.Append(good); err != nil {
		t.Fatal(err)
	}
	bad := srvBatch("p1", "k-bad", 2, srvRec("p1", "a", 2), srvRec("p1", "a", 3))
	if err := spool.Append(bad); err != nil {
		t.Fatal(err)
	}
	spool.Close()
	// Simulate the crash: cut the file inside the last record.
	path := filepath.Join(dir, spoolFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Batches != 1 || st.Records != 1 {
		t.Fatalf("tail not dropped: %+v", st)
	}
	// The truncated batch's key was never committed: its retry lands.
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp := postBatch(t, ts, "", bad, "p1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after heal: %s", resp.Status)
	}
	st := s.Stats()
	if st.Batches != 2 || st.Records != 3 || st.Duplicates != 0 {
		t.Errorf("after retry: %+v", st)
	}
	// And the healed file replays cleanly.
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("healed spool: %d records", len(recs))
	}
}
