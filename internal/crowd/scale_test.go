package crowd

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/measure"
	"repro/internal/sketch"
)

// --- sketched aggregates ---

// A server given RetainOff, which the benchmark module still sets and
// which changes nothing, serves every sketched aggregate.
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
	sum := s.Summary()
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
// from the very records the server accepted, read from its spool,
// within alpha.
func TestServerSummaryVsExact(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	exact := measure.AppMedians(recs, 1)
	sketched := map[string]float64{}
	for app, qs := range s.Summary().PerApp {
		sketched[app] = qs.P50MS
	}
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

// A spool written by hand as one file of wire-encoded batches opens
// and replays. Directories the removed segment rotation and Compact
// wrote are refused by both entry points, never opened partial; after
// the merge the refusal names, replay returns every batch once, in
// append order.
func TestSpoolLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name string, from, to int) {
		t.Helper()
		var buf bytes.Buffer
		for i := from; i < to; i++ {
			if err := measure.EncodeBatch(&buf, srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "a", 1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(spoolFile, 0, 3)
	sp, replay, err := collectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp.Close()
	if len(replay) != 3 {
		t.Errorf("single-file replay: %d batches", len(replay))
	}

	// Segments 1 and 2 beside segment 0, as the rotation left them.
	writeFile("batches-000001.jsonl", 3, 5)
	writeFile("batches-000002.jsonl", 5, 6)
	const merge = "batches-*.jsonl >> "
	if _, _, err := OpenSpool(dir); err == nil || !strings.Contains(err.Error(), merge) {
		t.Fatalf("OpenSpool on a segment chain: %v", err)
	}
	if _, err := ReadSpool(dir); err == nil || !strings.Contains(err.Error(), merge) {
		t.Fatalf("ReadSpool on a segment chain: %v", err)
	}
	// The merge the error names.
	segs, err := filepath.Glob(filepath.Join(dir, "batches-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, raw...)
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, spoolFile), all, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, replay, err = collectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp.Close()
	if len(replay) != 6 {
		t.Fatalf("replay after merge: %d batches, want 6", len(replay))
	}
	for i, b := range replay {
		if b.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("replay order after merge broken at %d: %q", i, b.Key)
		}
	}

	// A manifest of compacted keys cannot replay: refused, named.
	manifest := filepath.Join(dir, "compacted.keys")
	if err := os.WriteFile(manifest, []byte(`{"device":"p1","key":"gone"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSpool(dir); err == nil || !strings.Contains(err.Error(), manifest) {
		t.Fatalf("OpenSpool with compacted.keys: %v", err)
	}
	if _, err := ReadSpool(dir); err == nil || !strings.Contains(err.Error(), manifest) {
		t.Fatalf("ReadSpool with compacted.keys: %v", err)
	}
}

// A spool dir written by the removed `collectord -shards N` holds only
// shard-NNN/ subdirectories. Opening it flat would start empty and
// forget every dedup key, so both entry points refuse it, naming the
// merge; after the merge, replay yields every batch exactly once.
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
	writeSeg("shard-000", spoolFile, "a0", "a1")
	writeSeg("shard-000", "batches-000001.jsonl", "a2")
	writeSeg("shard-001", spoolFile, "b0", "b1", "b2")

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
		t.Fatalf("refusal left a spool file behind: %v", err)
	}

	// The merge the error names: cat DIR/shard-*/batches*.jsonl >>
	// DIR/batches.jsonl.
	srcs, err := filepath.Glob(filepath.Join(dir, "shard-*", "batches*.jsonl"))
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
	if err := os.WriteFile(filepath.Join(dir, spoolFile), all, 0o644); err != nil {
		t.Fatal(err)
	}

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
	if got := s.DedupKeys(); got != 2 {
		t.Errorf("dedup windows after merge: %d, want 2 (one per device)", got)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	b := srvBatch("dev-shard-000", "a2", 0, srvRec("", "app", 1))
	if resp := postBatch(t, ts, "", b, b.Device); resp.StatusCode != http.StatusOK {
		t.Fatalf("redelivery of %s: %s", b.Key, resp.Status)
	}
	if st := s.Stats(); st.Duplicates != 1 || st.Batches != 6 {
		t.Errorf("redelivery after merge not absorbed: %+v", st)
	}
}

// The server's one aggregation equals sketches fed the same records one
// by one, bit for bit, however its 16 shards interleave the commits: 64
// devices (hashing across every shard) upload concurrently while
// Summary and the /metrics document read in between.
//
// The collector keeps one sketch per app and per network key for all
// 16 ingest shards, behind one mutex taken inside the shard lock, so
// the test repeats under the race detector.
//
//race:repeat 20
func TestSummaryEqualsSequentialSketch(t *testing.T) {
	const devices, batches, perBatch = 64, 6, 12
	s, err := NewServer(ServerOptions{ExposeMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"com.a", "com.b", "com.c", "com.d", "com.e"}
	nets := []string{"WiFi", "LTE", "3G"}
	shardsHit := make(map[uint64]bool)
	bodies := make([][][]byte, devices)
	perApp := make(map[string]*sketch.Sketch)
	perNet := make(map[string]*sketch.Sketch)
	feed := func(m map[string]*sketch.Sketch, key string, ms float64) {
		if m[key] == nil {
			m[key] = sketch.New(sketchAlpha)
		}
		m[key].Add(ms)
	}
	rng := rand.New(rand.NewSource(9))
	for d := range devices {
		dev := fmt.Sprintf("phone-%02d", d)
		shardsHit[hashDevice(dev)%ingestShards] = true
		for k := range batches {
			b := srvBatch(dev, fmt.Sprintf("%s/k%d", dev, k), k)
			for range perBatch {
				r := srvRec(dev, apps[rng.Intn(len(apps))], 0.05*math.Exp(rng.Float64()*12))
				r.NetType = nets[rng.Intn(len(nets))]
				if rng.Intn(4) == 0 {
					r.Kind, r.App = measure.KindDNS, "system.dns"
				}
				b.Records = append(b.Records, r)
			}
			body := measure.AppendBatch(nil, b)
			bodies[d] = append(bodies[d], body)
			// The reference reads the records as the server decodes them.
			dec, err := measure.DecodeBatchBytes(body)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range dec.Records {
				if r.Kind == measure.KindTCP {
					feed(perApp, r.App, r.Millis())
				}
				feed(perNet, r.NetKey(), r.Millis())
			}
		}
	}
	if len(shardsHit) != ingestShards {
		t.Fatalf("devices hash to %d of %d shards", len(shardsHit), ingestShards)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Summary()
			if err := s.metricsRegistry().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var uploads sync.WaitGroup
	for d := range devices {
		uploads.Add(1)
		go func() {
			defer uploads.Done()
			dev := fmt.Sprintf("phone-%02d", d)
			for _, body := range bodies[d] {
				req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(body))
				req.Header.Set(DeviceHeader, dev)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("%s: %d %s", dev, w.Code, w.Body)
				}
			}
		}()
	}
	uploads.Wait()
	close(done)
	readers.Wait()

	sum := s.Summary()
	if sum.Stats.Records != devices*batches*perBatch {
		t.Fatalf("records %d, want %d", sum.Stats.Records, devices*batches*perBatch)
	}
	same := func(kind string, got map[string]QuantileSummary, want map[string]*sketch.Sketch) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d", kind, len(got), len(want))
		}
		for key, sk := range want {
			g, w := got[key], quantileSummary(sk)
			g.MeanMS, w.MeanMS = 0, 0 // float sums reassociate with commit order
			if g != w {
				t.Errorf("%s %s: summary %+v, sequential %+v", kind, key, g, w)
			}
		}
	}
	same("per-app", sum.PerApp, perApp)
	same("per-net", sum.PerNet, perNet)
}
