package crowd

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
)

// Tests for the upload path around the wire codec: the spool stays the
// format it was, the handler's buffers are pooled and race-clean, and
// the per-upload allocation count is pinned.

// benchUpload is one upload of the benchmark's shape: 8 TCP records
// with the zero time, one destination, apps named bench.appNN.
func benchUpload(device string, seq int) measure.Batch {
	b := measure.Batch{Device: device, Key: fmt.Sprintf("%s/b%d", device, seq), Seq: seq + 1}
	for i := 0; i < 8; i++ {
		b.Records = append(b.Records, measure.Record{
			Kind: measure.KindTCP, App: fmt.Sprintf("bench.app%02d", (i*5+seq)%12), UID: 10007,
			Dst: netip.MustParseAddrPort("203.0.113.1:443"),
			RTT: time.Duration(8e6 + i*1234567), NetType: "LTE",
		})
	}
	return b
}

// compatBatches are the batches testdata/spool_322fcc5 was written
// from, by Spool.Append as of commit 322fcc5 (encoding/json did the
// encoding then): the benchmark's shape; every field, both kinds, an
// IPv6 zone, strings that need each kind of escaping; an empty batch;
// a redelivered key.
func compatBatches() []measure.Batch {
	first := benchUpload("sim-0000007", 0)
	return []measure.Batch{
		first,
		{Device: "phone-é\"1", Key: "phone/<k>&\u2028/2", Seq: 2, Records: []measure.Record{
			{Kind: measure.KindDNS, App: "system.dns", Dst: netip.MustParseAddrPort("[fe80::1%eth0]:53"), Domain: "exämple.test",
				RTT: 1500 * time.Microsecond, At: time.Unix(1700000000, 123456789).UTC(), NetType: "WiFi", ISP: "Telefónica", Country: "ES", Device: "phone-é\"1"},
			{Kind: measure.KindTCP, App: "com.app\t\"x\"\\", UID: -3, Dst: netip.MustParseAddrPort("[2001:db8::2]:8443"), Domain: "a\x00b\xffc",
				RTT: -5, At: time.Unix(0, -1).UTC(), NetType: "3G"},
		}},
		{Device: "d3", Key: "d3/empty", Seq: 3},
		first,
	}
}

// A segment written before the codec was hand-rolled replays to the
// batches it was written from, and appending those batches today
// writes the same file byte for byte: one spool format, then and now.
func TestSpoolCompatibleWithJSONEncodedSegments(t *testing.T) {
	const fixture = "testdata/spool_322fcc5"
	old, err := os.ReadFile(filepath.Join(fixture, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	batches := compatBatches()

	dir := t.TempDir()
	sp, _, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := sp.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := sp.Stats(); st.Bytes != int64(len(old)) {
		t.Errorf("spool holds %d bytes, the old encoder wrote %d", st.Bytes, len(old))
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, old) {
		t.Fatalf("appends are no longer byte-identical to a 322fcc5 segment:\n got %q\nwant %q", now, old)
	}

	// Replay of the old segment: every batch comes back, the repeated
	// key too, since replay re-commits what the spool holds; the invalid
	// byte as U+FFFD and the zero time as what its UnixNano says;
	// everything else as written. The first and last batch share their
	// records, so fixing the first's times fixes both.
	want := batches[:4:4]
	want[1].Records[1].Domain = "a\x00b\ufffdc"
	for i := range want[0].Records {
		want[0].Records[i].At = time.Unix(0, time.Time{}.UnixNano()).UTC()
	}
	replayed, _ := replayBytes(old)
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(replayed), len(want))
	}
	for i := range want {
		if want[i].Records == nil {
			want[i].Records = []measure.Record{}
		}
		if !reflect.DeepEqual(replayed[i], want[i]) {
			t.Errorf("batch %d replayed as\n %+v\nwant\n %+v", i, replayed[i], want[i])
		}
	}
	recs, err := ReadSpool(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 18 || recs[0].Device != "sim-0000007" || recs[9].Device != "phone-é\"1" || recs[17].Device != "sim-0000007" {
		t.Errorf("ReadSpool of the old segment: %d records, first %+v", len(recs), recs[:min(1, len(recs))])
	}
}

// upload posts b's encoding straight at the handler.
func upload(s *Server, raw []byte, device string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(raw))
	req.Header.Set(DeviceHeader, device)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// The reply bodies are the bytes json.NewEncoder used to write.
func TestUploadReplyBytes(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw := measure.AppendBatch(nil, benchUpload("p1", 0))
	for i, want := range []string{`{"status":"accepted","records":8}` + "\n", `{"status":"duplicate","records":0}` + "\n"} {
		rec := upload(s, raw, "p1")
		if rec.Code != http.StatusOK || rec.Body.String() != want || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("upload %d: %d %q (%s), want 200 %q", i, rec.Code, rec.Body, rec.Header().Get("Content-Type"), want)
		}
	}
	// The per-network keys are still spelled Record.NetKey().
	raw = measure.AppendBatch(nil, srvBatch("p2", "k", 1, measure.Record{Kind: measure.KindDNS, App: "system.dns", RTT: time.Millisecond}))
	upload(s, raw, "p2")
	sum := s.Summary()
	if sum.PerNet["TCP/LTE"].N != 8 || sum.PerNet["DNS/?"].N != 1 || len(sum.PerNet) != 2 {
		t.Errorf("per-network summary keys: %+v", sum.PerNet)
	}
}

// One accepted upload — body read, decode, dedup, spool append, sketch
// update, reply — allocates a bounded number of
// objects: the batch's own strings and records, the request plumbing,
// no per-record copies and no encoder or decoder state. (108 at 322fcc5,
// measured the same way.)
func TestUploadAllocsBounded(t *testing.T) {
	s, err := NewServer(ServerOptions{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const runs = 200
	raws := make([][]byte, runs+10)
	for i := range raws {
		raws[i] = measure.AppendBatch(nil, benchUpload("sim-0000007", i))
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		if rec := upload(s, raws[i], "sim-0000007"); rec.Code != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, rec.Code, rec.Body)
		}
		i++
	})
	// About 17 of these are the test's own request and recorder.
	const bound = 45
	t.Logf("one upload (request and recorder included): %.1f allocs", avg)
	if avg > bound {
		t.Errorf("one upload allocates %.1f objects, want at most %d", avg, bound)
	}
	if st := s.Stats(); st.Batches != i || st.BadRequests != 0 {
		t.Errorf("stats after %d uploads: %+v", i, st)
	}
}

// Concurrent uploaders — two on one device (one shard, one dedup set),
// two on devices of different shards — share the buffer pool; run
// under -race this is the check that no pooled buffer is still read by
// one request while another writes it, and exactly-once must hold.
func TestConcurrentUploadersSharePooledBuffers(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	other := "dev-b"
	for i := 0; s.shard(other) == s.shard("dev-a"); i++ {
		other = fmt.Sprintf("dev-b%d", i)
	}
	const perUploader = 60
	var wg sync.WaitGroup
	for u, device := range []string{"dev-a", "dev-a", other, "dev-c"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perUploader; i++ {
				// The two dev-a uploaders send the same keys: one of each
				// pair lands, the other is absorbed as a duplicate.
				b := benchUpload(device, i)
				if i%5 == 0 {
					b.Records[0].App = "an.app.with \"escapes\" é"
				}
				raw := measure.AppendBatch(nil, b)
				if i%7 == 0 { // a key only encoding/json reads: the slow decode path, concurrently too
					raw = bytes.Replace(raw, []byte(`"kind"`), []byte(`"Kind"`), 1)
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(DeviceHeader, device)
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Errorf("uploader %d: %v", u, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("uploader %d, batch %d: %s", u, i, resp.Status)
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if st.Batches != 3*perUploader || st.Duplicates != perUploader || st.Records != 3*perUploader*8 || st.BadRequests != 0 {
		t.Errorf("after 4 uploaders: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	perDevice := map[string]int{}
	for _, r := range recs {
		if r.Dst != netip.MustParseAddrPort("203.0.113.1:443") || r.NetType != "LTE" || r.RTT < 8e6 {
			t.Fatalf("spooled record mangled: %+v", r)
		}
		perDevice[r.Device]++
	}
	if len(recs) != 3*perUploader*8 || perDevice["dev-a"] != perUploader*8 || perDevice[other] != perUploader*8 {
		t.Errorf("spool replays %d records, per device %v", len(recs), perDevice)
	}
}

// A body larger than a pooled buffer is read whole, whatever its
// Content-Length claims: the header sizes the buffer only up to a
// pooled buffer's worth, the bytes that arrive do the rest.
func TestUploadLargerThanPooledBuffer(t *testing.T) {
	s, err := NewServer(ServerOptions{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, declared := range []int64{-1, 10, 0, 1 << 40} {
		b := benchUpload("big", i)
		for len(b.Records) < 2000 {
			b.Records = append(b.Records, b.Records[:8]...)
		}
		raw := measure.AppendBatch(nil, b)
		if len(raw) < 3*maxPooledBuf {
			t.Fatalf("body of %d bytes is not big", len(raw))
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(raw))
		req.Header.Set(DeviceHeader, "big")
		if declared != 0 {
			req.ContentLength = declared
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("declared %d: %d %s", declared, rec.Code, rec.Body)
		}
	}
	if st := s.Stats(); st.Records != 4*2000 {
		t.Errorf("stats: %+v", st)
	}
}
