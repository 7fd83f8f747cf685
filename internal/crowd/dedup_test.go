package crowd

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/measure"
)

// Every batch of a run is delivered twice, in an order shuffled within
// the window: each seq's two copies land anywhere in the next 32
// positions of the run. Every batch is accepted once, the other copy
// is a duplicate, and each record counts once.
func TestDedupShuffledRedeliveryCountsOnce(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	counts := map[string]int{}
	for _, r := range s.Records() {
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
	s, err := NewServer(ServerOptions{RetainRecords: RetainOff})
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
	s, err := NewServer(ServerOptions{RetainRecords: RetainOff, ExposeMetrics: true})
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
	s1, err := NewServer(ServerOptions{SpoolDir: dir, RetainRecords: RetainOff})
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

	s2, err := NewServer(ServerOptions{SpoolDir: dir, RetainRecords: RetainOff})
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
		if len(tab.idx) != len(exact) {
			t.Fatalf("%d windows for %d pairs", len(tab.idx), len(exact))
		}
	})
}
