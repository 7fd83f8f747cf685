package crowd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/measure"
)

// --- spool segment rotation and compaction ---

// A tiny segment cap forces rotation; everything must replay across
// the resulting segment chain.
func TestSpoolRotationReplay(t *testing.T) {
	dir := t.TempDir()
	spool, rep, err := OpenSpoolOptions(dir, SpoolOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 {
		t.Fatalf("fresh spool segments: %d", rep.Segments)
	}
	for i := 0; i < 10; i++ {
		b := srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "app", float64(i+1)))
		if err := spool.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if spool.Segments() < 3 {
		t.Fatalf("no rotation at 256-byte cap: %d segments", spool.Segments())
	}
	spool.Close()

	_, rep2, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Batches) != 10 {
		t.Errorf("replayed %d of 10 batches across %d segments", len(rep2.Batches), rep2.Segments)
	}
	for i, b := range rep2.Batches {
		if b.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("replay order broken at %d: %q", i, b.Key)
		}
	}
	// ReadSpool (offline analysis) sees the same dataset.
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Errorf("offline read: %d records", len(recs))
	}
}

// Compact drops sealed segments but their keys keep absorbing
// redelivery — across a restart.
func TestSpoolCompact(t *testing.T) {
	dir := t.TempDir()
	spool, _, err := OpenSpoolOptions(dir, SpoolOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var batches []measure.Batch
	for i := 0; i < 8; i++ {
		b := srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "app", float64(i+1)))
		batches = append(batches, b)
		if err := spool.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	before := spool.Segments()
	if before < 2 {
		t.Fatalf("need sealed segments to compact, have %d", before)
	}
	segs, keys, err := spool.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if segs != before-1 {
		t.Errorf("compacted %d of %d sealed segments", segs, before-1)
	}
	if keys == 0 {
		t.Error("compaction preserved no keys")
	}
	if spool.Segments() != 1 {
		t.Errorf("segments after compact: %d", spool.Segments())
	}
	// A second compact with nothing sealed is a no-op.
	if segs, _, err := spool.Compact(); err != nil || segs != 0 {
		t.Errorf("idle compact: %d, %v", segs, err)
	}
	spool.Close()

	// Restart: compacted keys absorb redelivery even though their
	// records are gone.
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.DedupKeys(), 8; got != want {
		t.Errorf("dedup keys after compacted restart: %d, want %d", got, want)
	}
	if n := len(s.Records()); n >= 8 {
		t.Errorf("compacted records still replaying: %d", n)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, b := range batches {
		if resp := postBatch(t, ts, "", b, "p1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("redelivery of %s: %s", b.Key, resp.Status)
		}
	}
	if st := s.Stats(); st.Duplicates != 8 {
		t.Errorf("redelivered compacted keys not absorbed: %+v", st)
	}
}

// A server with a small segment cap rotates, compacts via
// CompactSpool, and still dedups after restart.
func TestServerSpoolSegmentsAndCompact(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerOptions{SpoolDir: dir, SpoolSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	for i := 0; i < 8; i++ {
		b := srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "app", float64(i+1)))
		if resp := postBatch(t, ts1, "", b, "p1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	if segs, keys, err := s1.CompactSpool(); err != nil || segs == 0 || keys == 0 {
		t.Fatalf("server compact: segs=%d keys=%d err=%v", segs, keys, err)
	}
	ts1.Close()
	s1.Close()

	s2, err := NewServer(ServerOptions{SpoolDir: dir, SpoolSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DedupKeys(); got != 8 {
		t.Errorf("keys after restart: %d", got)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	b := srvBatch("p1", "k0", 0, srvRec("p1", "app", 1))
	postBatch(t, ts2, "", b, "p1")
	if st := s2.Stats(); st.Duplicates != 1 {
		t.Errorf("post-compact post-restart dedup: %+v", st)
	}
}

// --- retention modes and sketched aggregates ---

func TestServerRetainOff(t *testing.T) {
	s, err := NewServer(ServerOptions{RetainRecords: RetainOff})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 50; i++ {
		dev := fmt.Sprintf("p%d", i%5)
		b := srvBatch(dev, fmt.Sprintf("%s/k%d", dev, i), i, srvRec("", "com.app", float64(10+i)))
		if resp := postBatch(t, ts, "", b, dev); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	if recs := s.Records(); recs != nil {
		t.Errorf("retain-off server kept %d records", len(recs))
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/records")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retain-off /v1/records: %s", resp.Status)
	}
	// The sketched aggregates are all still there.
	sum := s.Summary()
	if sum.RetainRecords {
		t.Error("summary claims retention")
	}
	if sum.Shards != 16 {
		t.Errorf("summary shards: %d, want 16", sum.Shards)
	}
	if sum.Stats.Records != 50 || sum.TCPRecords != 50 {
		t.Errorf("summary counts: %+v", sum.Stats)
	}
	qs, ok := sum.PerApp["com.app"]
	if !ok || qs.N != 50 {
		t.Fatalf("per-app sketch: %+v", sum.PerApp)
	}
	// Samples are 10..59 ms; the sketched median must sit inside with
	// 1% relative accuracy.
	if qs.P50MS < 33 || qs.P50MS > 36 {
		t.Errorf("sketched median of 10..59: %g", qs.P50MS)
	}
}

// The sketched per-app medians agree with the exact medians computed
// from the very records the server accepted, within alpha.
func TestServerSummaryVsExact(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	apps := []string{"com.a", "com.b", "com.c"}
	for i := 0; i < 120; i++ {
		dev := fmt.Sprintf("p%d", i%7)
		app := apps[i%len(apps)]
		// Heavy-tailed-ish spread: keep the sketch honest.
		ms := 5 + float64(i%40)*float64(1+i%3)*3.5
		b := srvBatch(dev, fmt.Sprintf("%s/k%d", dev, i), i, srvRec("", app, ms))
		if resp := postBatch(t, ts, "", b, dev); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	exact := measure.AppMedians(s.Records(), 1)
	sum := s.Summary()
	sketched := sum.AppMedians(1)
	if len(sketched) != len(exact) {
		t.Fatalf("app sets differ: sketched %v exact %v", sketched, exact)
	}
	for app, want := range exact {
		got, ok := sketched[app]
		if !ok {
			t.Fatalf("app %s missing from sketch", app)
		}
		// Nearest-rank vs interpolated median differ by at most one
		// sample step; allow alpha plus a neighbouring-sample slack.
		if relErr(got, want) > 0.12 {
			t.Errorf("app %s: sketched median %g vs exact %g", app, got, want)
		}
		if ms, ok := s.AppMedianMS(app); !ok || ms != got {
			t.Errorf("AppMedianMS(%s) = %g, %v; summary says %g", app, ms, ok, got)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Device-stamp hashing spreads a fleet roster across shards instead of
// piling onto a few.
func TestHashDeviceSpread(t *testing.T) {
	const shards = 16
	counts := make([]int, shards)
	for i := 0; i < 1600; i++ {
		counts[hashDevice(fmt.Sprintf("phone-%04d", i))&(shards-1)]++
	}
	for i, c := range counts {
		if c < 50 || c > 200 {
			t.Errorf("shard %d holds %d of 1600 structured stamps", i, c)
		}
	}
	// Same stamp, same shard — the dedup invariant.
	if hashDevice("phone-0007") != hashDevice("phone-0007") {
		t.Error("hash is not stable")
	}
}

// The legacy single-file spool (pre-rotation layout) still opens and
// replays: segment 0 keeps the old name.
func TestSpoolLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	// Write a legacy spool by hand: one file, wire-encoded batches.
	f, err := os.Create(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := measure.EncodeBatch(f, srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "a", 1))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	_, rep, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != 3 || rep.Segments != 1 {
		t.Errorf("legacy replay: %d batches, %d segments", len(rep.Batches), rep.Segments)
	}
}

// A spool dir written by the removed `collectord -shards N` holds only
// shard-NNN/ subdirectories. Opening it flat would start empty and
// forget every dedup key, so both entry points refuse it, naming the
// merge; after the merge, replay yields every batch exactly once and
// the compacted keys still dedup.
func TestSpoolRefusesLegacyShardedLayout(t *testing.T) {
	dir := t.TempDir()
	writeSeg := func(shard, name string, keys ...string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, shard), 0o755); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i, k := range keys {
			if err := measure.EncodeBatch(&buf, srvBatch("dev-"+shard, k, i, srvRec("", "app", float64(i+1)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, shard, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSeg("shard-000", segName(0), "a0", "a1")
	writeSeg("shard-000", segName(1), "a2")
	writeSeg("shard-001", segName(0), "b0", "b1", "b2")
	manifest, err := json.Marshal(SpoolKey{Device: "dev-shard-001", Key: "b-compacted"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-001", manifestFile), append(manifest, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenSpool(dir); err == nil || !strings.Contains(err.Error(), "shard-*/batches*.jsonl") {
		t.Fatalf("OpenSpool on a sharded layout: %v", err)
	}
	if _, err := ReadSpool(dir); err == nil || !strings.Contains(err.Error(), "shard-*/batches*.jsonl") {
		t.Fatalf("ReadSpool on a sharded layout: %v", err)
	}
	if _, err := NewServer(ServerOptions{SpoolDir: dir}); err == nil {
		t.Fatal("NewServer opened a sharded layout as an empty spool")
	}
	if _, err := os.Stat(filepath.Join(dir, spoolFile)); !os.IsNotExist(err) {
		t.Fatalf("refusal left a segment behind: %v", err)
	}

	// The merge the error names: cat DIR/shard-*/X >> DIR/X.
	merge := func(pattern, dst string) {
		t.Helper()
		srcs, err := filepath.Glob(filepath.Join(dir, "shard-*", pattern))
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, src := range srcs {
			raw, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, raw...)
		}
		if err := os.WriteFile(filepath.Join(dir, dst), all, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merge("batches*.jsonl", spoolFile)
	merge(manifestFile, manifestFile)

	recs, err := ReadSpool(dir)
	if err != nil || len(recs) != 6 {
		t.Fatalf("ReadSpool after merge: %d records, err %v", len(recs), err)
	}
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Batches != 6 || st.Records != 6 {
		t.Errorf("replay after merge: %+v", st)
	}
	if got := s.DedupKeys(); got != 7 {
		t.Errorf("dedup keys after merge: %d, want 6 replayed + 1 compacted", got)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, b := range []measure.Batch{
		srvBatch("dev-shard-000", "a2", 0, srvRec("", "app", 1)),
		srvBatch("dev-shard-001", "b-compacted", 0, srvRec("", "app", 1)),
	} {
		if resp := postBatch(t, ts, "", b, b.Device); resp.StatusCode != http.StatusOK {
			t.Fatalf("redelivery of %s: %s", b.Key, resp.Status)
		}
	}
	if st := s.Stats(); st.Duplicates != 2 || st.Batches != 6 {
		t.Errorf("redelivery after merge not absorbed: %+v", st)
	}
}
