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

func TestFilter(t *testing.T) {
	s := NewStore()
	s.Add(rec(KindTCP, "a", "", "WiFi", "", 10))
	s.Add(rec(KindTCP, "a", "", "LTE", "", 10))
	got := s.Filter(func(r Record) bool { return r.NetType == "WiFi" })
	if len(got) != 1 {
		t.Errorf("filter: %d", len(got))
	}
}
