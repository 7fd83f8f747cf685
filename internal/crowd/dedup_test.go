package crowd

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/measure"
)

// Every batch of a run is delivered twice, in an order shuffled within
// the window: each seq's two copies land anywhere in the next 32
// positions of the run. Every batch is accepted once, the other copy
// is a duplicate, and each record counts once in the spool.
func TestDedupShuffledRedeliveryCountsOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const devices, run = 4, 300
	rng := rand.New(rand.NewSource(1))
	type delivery struct {
		at float64
		b  measure.Batch
	}
	var order []delivery
	for d := 0; d < devices; d++ {
		device := fmt.Sprintf("dev-%d", d)
		for seq := 1; seq <= run; seq++ {
			b := measure.Batch{Device: device, Epoch: "e1", Key: fmt.Sprintf("%s/%d", device, seq), Seq: seq,
				Records: []measure.Record{srvRec("", "com.app", float64(seq))}}
			for range 2 {
				order = append(order, delivery{float64(seq) + 32*rng.Float64(), b})
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].at < order[j].at })
	for _, o := range order {
		if rec := upload(s, measure.AppendBatch(nil, o.b), o.b.Device); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", o.b.Key, rec.Code, rec.Body)
		}
	}
	if st := s.Stats(); st.Batches != devices*run || st.Duplicates != devices*run || st.Records != devices*run {
		t.Errorf("stats: %+v, want %d batches, duplicates and records", st, devices*run)
	}
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[fmt.Sprintf("%s/%v", r.Device, r.RTT)]++
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("record %s counted %d times", k, n)
		}
	}
	if len(counts) != devices*run {
		t.Errorf("%d distinct records, want %d", len(counts), devices*run)
	}
}

// The windows grow with devices, not batches: a million batches from 8
// devices, every tenth redelivered, leave 8 windows.
func TestDedupWindowsBoundedByDevices(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const devices, batches = 8, 1_000_000
	var dups int
	for i := 0; i < batches; i++ {
		b := measure.Batch{Device: fmt.Sprintf("dev-%d", i%devices), Key: "unused", Seq: i/devices + 1}
		copies := 1
		if i%10 == 0 {
			copies = 2
		}
		for range copies {
			accepted, err := s.ingest(b)
			if err != nil {
				t.Fatal(err)
			}
			if !accepted {
				dups++
			}
		}
	}
	if got := s.DedupKeys(); got != devices {
		t.Errorf("DedupKeys() = %d after %d batches, want %d", got, batches, devices)
	}
	if st := s.Stats(); st.Batches != batches || st.Duplicates != batches/10 || dups != batches/10 {
		t.Errorf("stats %+v (%d refused), want %d batches and %d duplicates", st, dups, batches, batches/10)
	}
	if n := s.c.evictions.Load(); n != 0 {
		t.Errorf("%d evictions under the cap", n)
	}
}

// Twice the cap in distinct devices: the table holds at most the cap,
// every pair it dropped is counted, and it dropped the least recently
// seen ones. The last devices' redeliveries are still duplicates, and
// so are device 0's, whose redeliveries after every upload kept it
// seen; device 1's counts again (the at-least-once case past the cap).
func TestDedupWindowsEvictAtCap(t *testing.T) {
	s, err := NewServer(ServerOptions{ExposeMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	const devices = 2 * dedupPairs
	batch := func(d int) measure.Batch {
		return measure.Batch{Device: fmt.Sprintf("dev-%05d", d), Key: fmt.Sprintf("dev-%05d/1", d), Seq: 1}
	}
	for d := 0; d < devices; d++ {
		if ok, err := s.ingest(batch(d)); !ok || err != nil {
			t.Fatalf("device %d: accepted %v, %v", d, ok, err)
		}
		if ok, _ := s.ingest(batch(0)); ok {
			t.Fatalf("device 0's redelivery accepted after device %d", d)
		}
	}
	held := s.DedupKeys()
	if held > dedupPairs || held < dedupPairs*9/10 {
		t.Errorf("%d windows held, want at most the cap %d (and near it)", held, dedupPairs)
	}
	if ev := s.c.evictions.Load(); ev != int64(devices-held) {
		t.Errorf("%d evictions, want devices − held = %d", ev, devices-held)
	}
	if !strings.Contains(metricsText(s), fmt.Sprintf("mopeye_collector_dedup_evictions_total %d\n", devices-held)) {
		t.Errorf("evictions metric missing or wrong")
	}
	for d := devices - 64; d < devices; d++ {
		if ok, _ := s.ingest(batch(d)); ok {
			t.Errorf("redelivery from recent device %d accepted", d)
		}
	}
	if ok, _ := s.ingest(batch(0)); ok {
		t.Error("device 0, seen after every upload, was evicted")
	}
	if ok, _ := s.ingest(batch(1)); !ok {
		t.Error("redelivery from device 1, the least recently seen, refused: it was not evicted")
	}
}

// The windows' heap stays flat once the table evicts: the post-GC heap
// of a server after 802,000 distinct devices is within 1.05×
// of its heap after 4,096, and at most 128 B a window. An eviction
// leaves nothing behind in the index, a fixed array the table owns.
func TestDedupWindowHeapAtCap(t *testing.T) {
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(from, to int) {
		for d := from; d < to; d++ {
			if ok, err := s.ingest(measure.Batch{Device: fmt.Sprintf("dev-%07d", d), Seq: 1}); !ok || err != nil {
				t.Fatalf("device %d: accepted %v, %v", d, ok, err)
			}
		}
	}
	ingest(0, dedupPairs)
	first := heap() - before
	ingest(dedupPairs, 802_000)
	second := heap() - before
	held := s.DedupKeys()
	runtime.KeepAlive(s)

	perWindow := float64(second) / float64(held)
	t.Logf("%d B after %d devices, %d B after 802,000 (%.2f×): %.1f B a window, %d held",
		first, dedupPairs, second, float64(second)/float64(first), perWindow, held)
	if float64(second) > 1.05*float64(first) {
		t.Errorf("heap grew %.2f× from %d to 802,000 devices, want at most 1.05×", float64(second)/float64(first), dedupPairs)
	}
	if perWindow > 128 {
		t.Errorf("%.1f B a window, want at most 128", perWindow)
	}
}

// Four goroutines upload distinct devices, three times the cap in all,
// and each redelivers every batch right after sending it. They run in
// rounds of 64 devices each, so between a batch and its redelivery the
// other three add at most 192 pairs, fewer than a shard's 256: the
// batch's pair, the newest in its shard, is still held. So every
// redelivery is a duplicate, and the counts are exact.
//
// The goroutines share the shards' dedup windows, so the test repeats
// under the race detector.
//
//race:repeat 20
func TestDedupConcurrentEvictionCountsExact(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, round, rounds = 4, 64, 3 * dedupPairs / (4 * 64)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := r * round; i < (r+1)*round; i++ {
					b := measure.Batch{Device: fmt.Sprintf("dev-%d-%05d", g, i), Epoch: "e", Seq: 1}
					for copy := range 2 {
						if ok, err := s.ingest(b); err != nil || ok != (copy == 0) {
							t.Errorf("%s copy %d: accepted %v, %v", b.Device, copy, ok, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	const distinct = goroutines * round * rounds
	held := s.DedupKeys()
	if st := s.Stats(); st.Batches != distinct || st.Duplicates != distinct {
		t.Errorf("stats %+v, want %d batches and %d duplicates (one per redelivery)", st, distinct, distinct)
	}
	if held > dedupPairs {
		t.Errorf("%d windows held, want at most %d", held, dedupPairs)
	}
	if ev := s.c.evictions.Load(); ev != int64(distinct-held) {
		t.Errorf("%d evictions, want distinct − held = %d", ev, distinct-held)
	}
}

// metricsText is the server's /metrics document.
func metricsText(s *Server) string {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// A spool-backed server is closed and reopened: replay marks the
// windows, so each device's last 64 batches redelivered are duplicates,
// while its next batch and a batch of a new epoch are accepted.
func TestDedupWindowsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const devices, run = 5, 100
	batch := func(d int, epoch string, seq int) measure.Batch {
		device := fmt.Sprintf("dev-%d", d)
		return measure.Batch{Device: device, Epoch: epoch, Key: fmt.Sprintf("%s/%s/%d", device, epoch, seq), Seq: seq,
			Records: []measure.Record{srvRec("", "com.app", float64(seq))}}
	}
	epoch := func(d int) string { return strings.Repeat("e", d%2) } // half the devices carry none
	for d := 0; d < devices; d++ {
		for seq := 1; seq <= run; seq++ {
			if rec := upload(s1, measure.AppendBatch(nil, batch(d, epoch(d), seq)), fmt.Sprintf("dev-%d", d)); rec.Code != http.StatusOK {
				t.Fatalf("upload: %d %s", rec.Code, rec.Body)
			}
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DedupKeys(); got != devices {
		t.Errorf("%d windows after replay, want %d", got, devices)
	}
	for d := 0; d < devices; d++ {
		for seq := run - windowBits + 1; seq <= run; seq++ {
			b := batch(d, epoch(d), seq)
			rec := upload(s2, measure.AppendBatch(nil, b), b.Device)
			if want := `{"status":"duplicate","records":0}` + "\n"; rec.Body.String() != want {
				t.Fatalf("redelivery of %s after restart answered %q", b.Key, rec.Body)
			}
		}
		for _, b := range []measure.Batch{batch(d, epoch(d), run+1), batch(d, "restarted", 1)} {
			if rec := upload(s2, measure.AppendBatch(nil, b), b.Device); !strings.Contains(rec.Body.String(), `"accepted"`) {
				t.Errorf("new batch %s after restart answered %q", b.Key, rec.Body)
			}
		}
	}
	if st := s2.Stats(); st.Batches != devices*(run+2) || st.Duplicates != devices*windowBits {
		t.Errorf("after restart: %+v", st)
	}
}

// FuzzDedupWindow drives any sequence of (device, epoch, seq) verdicts
// over fewer pairs than a shard holds and checks each against an exact
// set of accepted seqs per pair that also refuses a seq more than 63
// below the pair's highest: the window never accepts a seq twice and
// never refuses a new seq inside it. Each op is 3 bytes: the pair, then
// a seq relative to the pair's top (an int8), or, when the pair byte's
// top bit is set, one of the int extremes.
func FuzzDedupWindow(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0xc0, 0, 1, 64, 0, 1, 0x81, 0, 0})
	f.Add([]byte{0x80, 6, 0, 0x80, 0, 0, 0x80, 6, 0, 0x80, 1, 0, 3, 0x80, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		extremes := [...]int{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 63, -1, 0, 1, math.MaxInt64 - 64, math.MaxInt64}
		type oracle struct {
			top int
			set map[int]bool
		}
		exact := map[pairKey]*oracle{}
		tab := newWindowTable()
		for ; len(data) >= 3; data = data[3:] {
			k := pairKey{fmt.Sprint("dev-", data[0]&0x0f), fmt.Sprint("e", data[0]>>4&0x07)} // 128 pairs < 256
			o := exact[k]
			var seq int
			switch {
			case data[0]&0x80 != 0:
				seq = extremes[data[1]%uint8(len(extremes))]
			case o != nil:
				seq = o.top + int(int8(data[1])) // wraps at the extremes: any int is a seq
			default:
				seq = int(int16(binary.BigEndian.Uint16(data[1:])))
			}
			dup := o != nil && (o.set[seq] || o.top >= math.MinInt64+63 && seq < o.top-63)
			if got := tab.seen(k, seq); got != dup {
				t.Fatalf("%v seq %d: window says duplicate=%v, exact set %v", k, seq, got, dup)
			}
			if dup {
				continue
			}
			if tab.mark(k, seq) {
				t.Fatalf("%v: evicted below the cap", k)
			}
			if o == nil {
				o = &oracle{top: seq, set: map[int]bool{}}
				exact[k] = o
			}
			o.set[seq] = true
			o.top = max(o.top, seq)
		}
		if tab.len() != len(exact) {
			t.Fatalf("%d windows for %d pairs", tab.len(), len(exact))
		}
	})
}

// FuzzDedupWindowEviction drives more pairs than a shard holds through
// one table against an exact oracle: each held pair's set of accepted
// seqs, and the held pairs in least-recently-seen order. Each verdict
// must match the oracle, and each eviction must drop the oracle's least
// recently seen pair; after every op at most 256 pairs are held, and
// every held pair is still found through the index with the oracle's
// top, which a broken backward shift would lose. Each op is 3 bytes a,
// x, y, with y a seq relative to the pair's top (an int8; a new pair
// starts at y). a's top two bits pick the pair: 0 or 1, pair
// ((a&0x3f)<<8|x) mod 1024 of a fixed set of devices and epochs; 2, x+1
// pairs never seen before, each at seq 1, which takes a short input
// past the cap; 3, the held pair at rank x from the least recently
// seen.
func FuzzDedupWindowEviction(f *testing.F) {
	f.Add([]byte{0x80, 255, 0, 0x80, 40, 0, 0, 5, 3, 0xc0, 0, 1, 0xc0, 3, 0, 0x80, 200, 0, 0x40, 7, 0xff, 0xc0, 0, 0x90})
	f.Add([]byte{0x80, 250, 0, 0xc0, 0, 0, 0x80, 10, 0, 0xc0, 1, 64, 0x3f, 0xff, 0x81, 0x80, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const shardPairs = dedupPairs / ingestShards
		type oracle struct {
			key pairKey
			top int
			set map[int]bool
		}
		held := map[pairKey]*list.Element{} // each an *oracle in age
		age := list.New()                   // front is the least recently seen
		tab := newWindowTable()
		fresh := 0
		step := func(k pairKey, seq int) {
			e := held[k]
			var o *oracle
			if e != nil {
				o = e.Value.(*oracle)
				age.MoveToBack(e)
			}
			dup := o != nil && (o.set[seq] || seq < o.top-63)
			if got := tab.seen(k, seq); got != dup {
				t.Fatalf("%v seq %d: window says duplicate=%v, oracle %v", k, seq, got, dup)
			}
			if dup {
				return
			}
			full := o == nil && len(held) == shardPairs
			if got := tab.mark(k, seq); got != full {
				t.Fatalf("%v seq %d: mark evicted=%v with %d pairs held", k, seq, got, len(held))
			}
			if full {
				oldest := age.Remove(age.Front()).(*oracle).key
				delete(held, oldest)
				if tab.find(oldest, pairHash(oldest)) >= 0 {
					t.Fatalf("%v, the least recently seen, still held after an eviction", oldest)
				}
			}
			if o == nil {
				o = &oracle{key: k, top: seq, set: map[int]bool{}}
				held[k] = age.PushBack(o)
			}
			o.set[seq] = true
			o.top = max(o.top, seq)
		}
		relative := func(k pairKey, y byte) int {
			if e := held[k]; e != nil {
				return e.Value.(*oracle).top + int(int8(y))
			}
			return int(int8(y))
		}
		for ; len(data) >= 3; data = data[3:] {
			a, x, y := data[0], data[1], data[2]
			switch a >> 6 {
			case 0, 1:
				id := (int(a&0x3f)<<8 | int(x)) % 1024
				k := pairKey{fmt.Sprint("dev-", id/3), fmt.Sprint("e", id%3)}
				step(k, relative(k, y))
			case 2:
				for range int(x) + 1 {
					fresh++
					step(pairKey{fmt.Sprint("fresh-", fresh), ""}, 1)
				}
			case 3:
				if len(held) > 0 {
					e := age.Front()
					for range int(x) % len(held) {
						e = e.Next()
					}
					k := e.Value.(*oracle).key
					step(k, relative(k, y))
				}
			}
			if tab.len() != len(held) || len(held) > shardPairs {
				t.Fatalf("%d windows held for %d pairs (cap %d)", tab.len(), len(held), shardPairs)
			}
			for e := age.Front(); e != nil; e = e.Next() {
				o := e.Value.(*oracle)
				i := tab.find(o.key, pairHash(o.key))
				if i < 0 {
					t.Fatalf("%v held but not found through the index", o.key)
				}
				if top := tab.slots[i].w.top; top != o.top {
					t.Fatalf("%v found with top %d, want %d", o.key, top, o.top)
				}
			}
		}
	})
}
