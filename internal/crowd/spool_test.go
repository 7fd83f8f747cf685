package crowd

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
)

// tearingFile is a spool file whose next Write lands only half its
// bytes and fails, and whose heal then fails at Truncate or at Seek.
type tearingFile struct {
	appendFile
	tear     bool
	failSeek bool // false: Truncate fails; true: Truncate works, Seek fails
}

var errInjected = errors.New("injected IO failure")

func (f *tearingFile) Write(p []byte) (int, error) {
	if !f.tear {
		return f.appendFile.Write(p)
	}
	f.tear = false
	n, _ := f.appendFile.Write(p[:len(p)/2])
	return n, errInjected
}

func (f *tearingFile) Truncate(size int64) error {
	if !f.failSeek {
		return errInjected
	}
	return f.appendFile.Truncate(size)
}

func (f *tearingFile) Seek(off int64, whence int) (int64, error) {
	if f.failSeek {
		return 0, errInjected
	}
	return f.appendFile.Seek(off, whence)
}

// A short write whose heal fails leaves torn bytes (or, after a failed
// seek, a gap) inside the file; replay stops there. So no later
// Append may succeed: every batch the spool acknowledged must replay
// after a reopen.
func TestSpoolUnhealedAppendRefusesLaterAppends(t *testing.T) {
	for _, failSeek := range []bool{false, true} {
		t.Run(fmt.Sprintf("failSeek=%v", failSeek), func(t *testing.T) {
			dir := t.TempDir()
			sp, _, err := OpenSpool(dir)
			if err != nil {
				t.Fatal(err)
			}
			first := srvBatch("p1", "k1", 1, srvRec("p1", "a", 1))
			if err := sp.Append(first); err != nil {
				t.Fatal(err)
			}
			sp.f = &tearingFile{appendFile: sp.f, tear: true, failSeek: failSeek}
			if err := sp.Append(srvBatch("p1", "k2", 2, srvRec("p1", "a", 2))); err == nil {
				t.Fatal("torn append reported success")
			}
			acked := []measure.Batch{first}
			third := srvBatch("p1", "k3", 3, srvRec("p1", "a", 3))
			if err := sp.Append(third); err == nil {
				acked = append(acked, third)
				t.Error("an append after an unhealed tear was acknowledged")
			}
			sp.Close()

			_, replay, err := collectSpool(dir)
			if err != nil {
				t.Fatal(err)
			}
			replayed := map[string]bool{}
			for _, b := range replay {
				replayed[b.Key] = true
			}
			for _, b := range acked {
				if !replayed[b.Key] {
					t.Errorf("acknowledged batch %s lost at replay", b.Key)
				}
			}
		})
	}
}

// collectSpool opens the spool in dir and returns every batch its
// replay hands over, in order.
func collectSpool(dir string) (*Spool, []measure.Batch, error) {
	var batches []measure.Batch
	sp, err := openSpool(dir, func(b measure.Batch) { batches = append(batches, b) })
	if err != nil {
		return nil, nil, err
	}
	return sp, batches, nil
}

// replayBytes replays a spool file's bytes, returning every batch
// replay hands over and the durable prefix.
func replayBytes(log []byte) ([]measure.Batch, int64) {
	var batches []measure.Batch
	good := replaySpool(bytes.NewReader(log), func(b measure.Batch) { batches = append(batches, b) })
	return batches, good
}

// redeliver uploads b to s in process and returns the reply's status
// word.
func redeliver(t *testing.T, s *Server, b measure.Batch) string {
	t.Helper()
	rec := upload(s, measure.AppendBatch(nil, b), b.Device)
	for _, status := range []string{"accepted", "duplicate"} {
		if rec.Code == http.StatusOK && strings.Contains(rec.Body.String(), `"`+status+`"`) {
			return status
		}
	}
	t.Fatalf("upload %s: %d %s", b.Key, rec.Code, rec.Body)
	return ""
}

// A crash can cut the spool file at any byte. Every cut must
// reopen to exactly the batches that end at or before it, heal the
// file to that prefix, and accept each lost batch's redelivery once.
func TestSpoolTruncatedAtEveryByte(t *testing.T) {
	batches := []measure.Batch{
		srvBatch("p1", "k1", 1, srvRec("p1", "a", 1)),
		srvBatch("p2", "k2", 1, srvRec("p2", "b", 2), srvRec("p2", "b", 3)),
		srvBatch("p1", "k3", 2, srvRec("p1", "c", 4)),
	}
	dir := t.TempDir()
	sp, _, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A batch ends with its closing brace; the newline after it only
	// separates, so replay keeps a batch cut just before its newline and
	// heals the file to end at the brace.
	var ends []int64
	for _, b := range batches {
		if err := sp.Append(b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, sp.Stats().Bytes-1)
	}
	sp.Close()
	full, err := os.ReadFile(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, end := range ends {
		if full[end] != '\n' {
			t.Fatalf("batch ending at %d is not followed by a newline", end)
		}
	}

	for cut := 0; cut <= len(full); cut++ {
		cdir := t.TempDir()
		path := filepath.Join(cdir, spoolFile)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		kept, good := 0, int64(0)
		for kept < len(ends) && ends[kept] <= int64(cut) {
			good = ends[kept]
			kept++
		}

		s, err := NewServer(ServerOptions{SpoolDir: cdir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st := s.Stats(); st.Batches != kept {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, st.Batches, kept)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != good {
			t.Fatalf("cut %d: healed to %v bytes (%v), want %d", cut, fi.Size(), err, good)
		}
		for i, b := range batches {
			want := "duplicate"
			if i >= kept {
				want = "accepted"
			}
			if got := redeliver(t, s, b); got != want {
				t.Fatalf("cut %d: first redelivery of %s %s, want %s", cut, b.Key, got, want)
			}
			if got := redeliver(t, s, b); got != "duplicate" {
				t.Fatalf("cut %d: second redelivery of %s %s", cut, b.Key, got)
			}
		}
		if st := s.Stats(); st.Batches != len(batches) {
			t.Fatalf("cut %d: %d batches after redelivery, want %d", cut, st.Batches, len(batches))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, replay, err := collectSpool(cdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(replay) != len(batches) {
			t.Fatalf("cut %d: %d batches replay after redelivery, want %d", cut, len(replay), len(batches))
		}
	}
}

// Flipping any byte of the first of three batches must never cost the
// two acknowledged batches after it: either the fault decodes (a
// string byte that comes back as U+FFFD, a renamed field) and all three
// keys replay, or OpenSpool and ReadSpool refuse the file, naming it
// and the offset, and leave it byte for byte as it was.
func TestSpoolMidFileFaultIsRefused(t *testing.T) {
	var full []byte
	first := 0
	for i := 1; i <= 3; i++ {
		full = measure.AppendBatch(full, srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "a", float64(i)), srvRec("p1", "b", float64(i+1))))
		if i == 1 {
			first = len(full)
		}
	}
	refused := 0
	for at := 0; at < first; at++ {
		dir := t.TempDir()
		path := filepath.Join(dir, spoolFile)
		flipped := bytes.Clone(full)
		flipped[at] ^= 0x80
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, replay, err := collectSpool(dir)
		if err != nil {
			refused++
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "at offset ") {
				t.Fatalf("flip at %d: the refusal names neither the file nor the offset: %v", at, err)
			}
			if _, rerr := ReadSpool(dir); rerr == nil {
				t.Fatalf("flip at %d: OpenSpool refused the file but ReadSpool read it", at)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, flipped) {
				t.Fatalf("flip at %d: the refusal changed the file", at)
			}
			continue
		}
		sp.Close()
		keys := map[string]bool{}
		for _, b := range replay {
			keys[b.Key] = true
		}
		if !keys["k2"] || !keys["k3"] {
			t.Fatalf("flip at %d: acknowledged batches lost, replayed %d", at, len(replay))
		}
	}
	if refused == 0 {
		t.Fatal("no flip was refused")
	}
}

// A reopened spool keeps one batch per line: the newline that replay's
// heal cuts after the last batch comes back with the next append (or
// at Close), so the file stays the batches' encodings back to back.
func TestSpoolReopenKeepsOneBatchPerLine(t *testing.T) {
	batches := []measure.Batch{
		srvBatch("p1", "k1", 1, srvRec("p1", "a", 1)),
		srvBatch("p2", "k2", 1, srvRec("p2", "b", 2), srvRec("p2", "b", 3)),
		srvBatch("p1", "k3", 2, srvRec("p1", "c", 4)),
	}
	var want []byte
	for _, b := range batches {
		want = measure.AppendBatch(want, b)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, spoolFile)
	appendAll := func(bs ...measure.Batch) {
		t.Helper()
		sp, _, err := OpenSpool(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if err := sp.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(batches[:2]...)
	appendAll(batches[2])
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("spool after a reopen (%v):\n got %q\nwant %q", err, got, want)
	}
	appendAll() // a reopen with no append must not cost the newline either
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("spool after an idle reopen (%v):\n got %q\nwant %q", err, got, want)
	}

	_, replay, err := collectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", len(replay), len(batches))
	}
	for i, b := range replay {
		if b.Key != batches[i].Key {
			t.Fatalf("replay order broken at %d: %q", i, b.Key)
		}
	}
	recs, err := ReadSpool(dir)
	if err != nil || len(recs) != 4 {
		t.Fatalf("ReadSpool: %d records, err %v", len(recs), err)
	}
}

// Append refuses a batch its own replay would refuse: a key-less batch
// leaves the file as it was, and the keyed batch after it replays
// alone, where a written key-less batch would be skipped on replay and
// make the keyed one a mid-file fault.
func TestSpoolAppendRefusesKeylessBatch(t *testing.T) {
	dir := t.TempDir()
	sp, _, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Append(srvBatch("p1", "", 1, srvRec("p1", "a", 1))); err == nil {
		t.Fatal("Append took a batch without a key")
	}
	if got := sp.Stats().Bytes; got != 0 {
		t.Fatalf("a refused append left %d bytes in the spool", got)
	}
	if fi, err := os.Stat(filepath.Join(dir, spoolFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("spool file after a refused append: %v, err %v", fi, err)
	}
	keyed := srvBatch("p1", "k1", 2, srvRec("p1", "b", 2))
	if err := sp.Append(keyed); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp, replay, err := collectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if len(replay) != 1 || replay[0].Key != "k1" || len(replay[0].Records) != 1 {
		t.Fatalf("replayed %+v, want the one keyed batch", replay)
	}
}

// FuzzSpoolReplay replays an arbitrary spool file, the collector's
// restart path. It must not panic,
// the durable prefix it reports must lie inside the file, replaying
// just that prefix (what OpenSpool heals the file to) must return the
// same batches and the same offset, and a complete batch batchAfter
// finds must start after the prefix.
func FuzzSpoolReplay(f *testing.F) {
	log, err := os.ReadFile(filepath.Join("testdata/spool_322fcc5", spoolFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)/2])
	flipped := bytes.Clone(log)
	flipped[len(log)/3] ^= 0x80
	f.Add(flipped)
	f.Add([]byte("\n\n{}\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		batches, good := replayBytes(log)
		if good < 0 || good > int64(len(log)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(log))
		}
		healed, good2 := replayBytes(log[:good])
		if good2 != good {
			t.Fatalf("healed prefix replays to offset %d, the file to %d", good2, good)
		}
		if !reflect.DeepEqual(healed, batches) {
			t.Fatalf("healed prefix replays %d batches, the file %d", len(healed), len(batches))
		}
		if at := batchAfter(bytes.NewReader(log), good, int64(len(log))); at != -1 && (at <= good || at >= int64(len(log))) {
			t.Fatalf("batch after the prefix at %d, outside (%d, %d)", at, good, len(log))
		}
	})
}

// Past the dedup cap a redelivery counts twice live: 257 devices of one
// shard upload seq 1, the 257th evicts the first device's pair, and
// that device's redelivery is accepted and spooled a second time.
// Replay re-commits the spool as it was accepted, so a restart changes
// no count and no sketch: replay equals live past the cap too.
//
// It repeats under the race detector with the collector's aggregation
// tests: a restart past the dedup cap must leave the counts and the
// sketches as they were live.
//
//race:repeat 20
func TestRestartPastDedupCapEqualsLive(t *testing.T) {
	const perShard = dedupPairs / ingestShards
	var devices []string
	for i := 0; len(devices) < perShard+1; i++ {
		if d := fmt.Sprintf("dev-%d", i); hashDevice(d)%ingestShards == 0 {
			devices = append(devices, d)
		}
	}
	batch := func(i int) measure.Batch {
		d := devices[i]
		tcp := srvRec("", fmt.Sprintf("com.app%d", i%5), float64(10+i))
		tcp.NetType = []string{"WiFi", "LTE"}[i%2]
		dns := measure.Record{Kind: measure.KindDNS, App: "system.dns", RTT: time.Duration(i+1) * time.Millisecond, NetType: "WiFi"}
		return measure.Batch{Device: d, Epoch: "e1", Key: d + "/e1/1", Seq: 1, Records: []measure.Record{tcp, dns}}
	}

	dir := t.TempDir()
	live, err := NewServer(ServerOptions{SpoolDir: dir, RetainRecords: RetainOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := range devices {
		if got := redeliver(t, live, batch(i)); got != "accepted" {
			t.Fatalf("first upload from %s: %s", devices[i], got)
		}
	}
	if got := redeliver(t, live, batch(0)); got != "accepted" {
		t.Fatalf("redelivery from %s, evicted past the cap: %s, want accepted", devices[0], got)
	}
	before := live.Summary()
	if before.Stats.Batches != perShard+2 {
		t.Fatalf("%d batches live, want %d", before.Stats.Batches, perShard+2)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewServer(ServerOptions{SpoolDir: dir, RetainRecords: RetainOff})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	after := restarted.Summary()
	if after.Stats.Batches != before.Stats.Batches || after.Stats.Records != before.Stats.Records {
		t.Errorf("after restart %d batches and %d records, live %d and %d",
			after.Stats.Batches, after.Stats.Records, before.Stats.Batches, before.Stats.Records)
	}
	if after.TCPRecords != before.TCPRecords {
		t.Errorf("after restart %d TCP records, live %d", after.TCPRecords, before.TCPRecords)
	}
	if !reflect.DeepEqual(after.PerApp, before.PerApp) || !reflect.DeepEqual(after.PerNet, before.PerNet) {
		t.Errorf("sketches after restart differ from live:\n per app %v\n    live %v\n per net %v\n    live %v",
			after.PerApp, before.PerApp, after.PerNet, before.PerNet)
	}
}

// A restart holds one decoder and the server's bounded state, not the
// spool: at its last batch, replaying 10,000 batches has added no more
// heap than replaying 1,000 (within 1.1× plus 256 KiB), and a server
// on the larger spool still commits every batch. The
// heap is read after a GC, against its size before the open, so the
// test binary's own fixtures do not widen the bound.
func TestSpoolReplayHeapFlat(t *testing.T) {
	spool := func(n int) string {
		t.Helper()
		dir := t.TempDir()
		sp, _, err := OpenSpool(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			device := fmt.Sprintf("dev-%d", i%64)
			b := measure.Batch{Device: device, Epoch: "e1", Key: fmt.Sprintf("%s/e1/%d", device, i/64+1), Seq: i/64 + 1}
			for j := range 16 {
				b.Records = append(b.Records, srvRec("", fmt.Sprintf("com.app%d", j), float64(1+(i+j)%200)))
			}
			if err := sp.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	heapNow := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	heapAtLast := func(dir string, n int) int64 {
		t.Helper()
		var seen int
		var heap int64
		base := heapNow()
		sp, err := openSpool(dir, func(measure.Batch) {
			if seen++; seen == n {
				heap = heapNow() - base
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("replayed %d batches, want %d", seen, n)
		}
		return heap
	}
	small, large := spool(1_000), spool(10_000)
	hSmall, hLarge := heapAtLast(small, 1_000), heapAtLast(large, 10_000)
	t.Logf("heap added at the last replayed batch: %d B after 1,000 batches, %d B after 10,000", hSmall, hLarge)
	if float64(hLarge) > 1.1*float64(max(hSmall, 0))+256<<10 {
		t.Errorf("replaying 10,000 batches added %d B of heap, 1,000 added %d B: the replay keeps what it replayed", hLarge, hSmall)
	}

	s, err := NewServer(ServerOptions{SpoolDir: large})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Batches != 10_000 || st.Records != 16*10_000 {
		t.Errorf("restart on 10,000 batches: %+v", st)
	}
}

// ReadSpool on the spool of a server that is appending to it reads a
// prefix of what the server accepted: a batch that lands while the
// read is under way is read whole or not at all, and is never taken
// for a complete batch after a fault in the middle of the file.
//
// The read races the server's appends, so the test repeats under the
// race detector.
//
//race:repeat 20
func TestReadSpoolWhileServerAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const batches = 4000
	var ingestErr error
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= batches; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.ingest(srvBatch("p1", fmt.Sprintf("p1/%d", i), i, srvRec("", "com.app", float64(i)))); err != nil {
				ingestErr = err
				return
			}
		}
	}()
	fail := func(format string, args ...any) {
		t.Helper()
		close(stop)
		<-done
		t.Fatalf(format, args...)
	}
	reads, last := 0, 0
	for finished := false; !finished; reads++ {
		select {
		case <-done:
			finished = true // the ingest has stopped: this read sees all it spooled
		default:
		}
		recs, err := ReadSpool(dir)
		if err != nil {
			fail("read %d, while the server appends: %v", reads, err)
		}
		for i, r := range recs {
			if r.RTT != time.Duration(i+1)*time.Millisecond || r.Device != "p1" {
				fail("read %d: record %d is %+v, want the record of batch %d", reads, i, r, i+1)
			}
		}
		last = len(recs)
	}
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	if last != batches {
		t.Fatalf("the read after the last append holds %d batches, want %d", last, batches)
	}
	t.Logf("%d reads while %d batches were appended", reads, batches)
}
