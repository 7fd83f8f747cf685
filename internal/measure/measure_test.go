package measure

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func rec(kind Kind, app, isp, net, device string, ms float64) Record {
	return Record{
		Kind: kind, App: app, ISP: isp, NetType: net, Device: device,
		Dst: netip.MustParseAddrPort("1.2.3.4:443"),
		RTT: time.Duration(ms * float64(time.Millisecond)),
	}
}

func TestStoreAddLenSnapshot(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	s.Add(rec(KindTCP, "a", "isp", "WiFi", "d1", 10))
	s.Add(rec(KindDNS, "system.dns", "isp", "LTE", "d1", 20))
	if s.Len() != 2 {
		t.Fatalf("len: %d", s.Len())
	}
	snap := s.Snapshot()
	snap[0].App = "mutated"
	if s.Snapshot()[0].App == "mutated" {
		t.Error("snapshot aliases the store")
	}
}

func TestKindFilter(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.Add(rec(KindTCP, "a", "", "", "", 1))
	}
	for i := 0; i < 3; i++ {
		s.Add(rec(KindDNS, "system.dns", "", "", "", 1))
	}
	if got := len(s.Kind(KindTCP)); got != 5 {
		t.Errorf("tcp: %d", got)
	}
	if got := len(s.Kind(KindDNS)); got != 3 {
		t.Errorf("dns: %d", got)
	}
}

func TestGroupings(t *testing.T) {
	recs := []Record{
		rec(KindTCP, "app1", "ispA", "WiFi", "d1", 10),
		rec(KindTCP, "app1", "ispB", "LTE", "d2", 20),
		rec(KindTCP, "app2", "ispA", "LTE", "d1", 30),
	}
	if got := len(ByApp(recs)["app1"]); got != 2 {
		t.Errorf("ByApp: %d", got)
	}
}

func TestByDomainSkipsEmpty(t *testing.T) {
	recs := []Record{
		{Kind: KindTCP, Domain: "x.example", RTT: time.Millisecond},
		{Kind: KindTCP, Domain: "", RTT: time.Millisecond},
	}
	m := ByDomain(recs)
	if len(m) != 1 {
		t.Errorf("domains: %v", m)
	}
}

func TestMedianAndAppMedians(t *testing.T) {
	recs := []Record{
		rec(KindTCP, "a", "", "", "", 10),
		rec(KindTCP, "a", "", "", "", 30),
		rec(KindTCP, "a", "", "", "", 20),
		rec(KindTCP, "b", "", "", "", 100),
	}
	if got := MedianRTT(recs); got != 25 {
		t.Errorf("median: %v", got)
	}
	med := AppMedians(recs, 2)
	if got := med["a"]; got != 20 {
		t.Errorf("app a median: %v", got)
	}
	if _, ok := med["b"]; ok {
		t.Error("app b below minN included")
	}
}

func TestRTTMillis(t *testing.T) {
	ms := RTTMillis([]Record{rec(KindTCP, "", "", "", "", 2.5)})
	if ms[0] != 2.5 {
		t.Errorf("%v", ms)
	}
}

func TestKindString(t *testing.T) {
	if KindTCP.String() != "TCP" || KindDNS.String() != "DNS" {
		t.Error("kind names")
	}
}

func TestConcurrentAdd(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Add(rec(KindTCP, fmt.Sprintf("app%d", g), "", "", "", float64(i)))
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("len: %d", s.Len())
	}
}

// A reader rebuilds and filters outside the store's mutex, so its
// filter may add to the store: the read still returns, with exactly
// the records added before it began, and the store keeps the rest.
//
// Snapshot and Kind read the row log through the same claim as a
// subscription, so the test repeats under the race detector.
//
//race:repeat 20
func TestReaderFilterMayAdd(t *testing.T) {
	s := NewStore()
	n := readChunk*2 + readChunk/2 // three claims
	for i := 0; i < n; i++ {
		s.Add(brec(i))
	}
	got := make(chan []Record, 1)
	go func() {
		got <- s.span(func(r Record) bool {
			s.Add(brec(n))
			return true
		})
	}()
	select {
	case recs := <-got:
		if len(recs) != n {
			t.Fatalf("read %d records, want the %d added before it", len(recs), n)
		}
		for i, r := range recs {
			checkStored(t, "span", r, brec(i))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read whose filter adds to the store did not return")
	}
	if got := s.Len(); got != 2*n {
		t.Fatalf("Len = %d, want %d: %d before the read, one per filtered record", got, 2*n, n)
	}
}

// Snapshot and Kind run while two writers add: each result is an
// in-order prefix of the next, and so of the final Snapshot, or of its
// TCP records.
//
// Snapshot and Kind read the row log through the same claim as a
// subscription, so the test repeats under the race detector.
//
//race:repeat 20
func TestSnapshotAndKindUnderLiveWriters(t *testing.T) {
	const perWriter = 3000
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := brec(w*perWriter + i)
				if i%3 == 0 {
					r.Kind = KindDNS
				}
				s.Add(r)
			}
		}(w)
	}
	written := make(chan struct{})
	go func() { wg.Wait(); close(written) }()

	isPrefix := func(p, of []Record) bool {
		if len(p) > len(of) {
			return false
		}
		for i := range p {
			if p[i] != of[i] {
				return false
			}
		}
		return true
	}
	var snap, tcp []Record
	reads := 0
	for done := false; !done; reads++ {
		select {
		case <-written:
			done = true
		default:
		}
		next, nextTCP := s.Snapshot(), s.Kind(KindTCP)
		if !isPrefix(snap, next) {
			t.Fatalf("read %d: Snapshot of %d records is not a prefix of the next, of %d", reads, len(snap), len(next))
		}
		if !isPrefix(tcp, nextTCP) {
			t.Fatalf("read %d: Kind(KindTCP) of %d records is not a prefix of the next, of %d", reads, len(tcp), len(nextTCP))
		}
		for _, r := range nextTCP {
			if r.Kind != KindTCP {
				t.Fatalf("read %d: Kind(KindTCP) returned a %v record", reads, r.Kind)
			}
		}
		snap, tcp = next, nextTCP
	}
	if len(snap) != 2*perWriter {
		t.Fatalf("final Snapshot holds %d records, want %d", len(snap), 2*perWriter)
	}
	var wantTCP []Record
	for _, r := range snap {
		if r.Kind == KindTCP {
			wantTCP = append(wantTCP, r)
		}
	}
	if len(tcp) != len(wantTCP) || !isPrefix(tcp, wantTCP) {
		t.Fatalf("final Kind(KindTCP) holds %d records, want the final Snapshot's %d", len(tcp), len(wantTCP))
	}
	t.Logf("%d reads of each while the writers ran", reads)
}
