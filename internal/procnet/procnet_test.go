package procnet

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func TestRenderParseRoundTripTCP4(t *testing.T) {
	tbl := NewTable()
	e := Entry{
		Proto: TCP, Local: ap("10.0.0.2:40001"), Remote: ap("93.184.216.34:443"),
		State: StateEstablished, UID: 10083,
	}
	tbl.Add(e)
	text := tbl.AppendRender(nil, TCP)
	got, err := AppendParse(nil, text, TCP)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("entries: %d", len(got))
	}
	if got[0].Local != e.Local || got[0].Remote != e.Remote ||
		got[0].State != e.State || got[0].UID != e.UID {
		t.Errorf("round trip mismatch: %+v", got[0])
	}
}

func TestRenderParseRoundTripTCP6(t *testing.T) {
	tbl := NewTable()
	e := Entry{
		Proto: TCP6, Local: ap("[fd00::2]:40001"), Remote: ap("[2606:2800:220:1::1]:443"),
		State: StateSynSent, UID: 10090,
	}
	tbl.Add(e)
	got, err := AppendParse(nil, tbl.AppendRender(nil, TCP6), TCP6)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got[0].Local != e.Local || got[0].Remote != e.Remote {
		t.Errorf("v6 round trip: %+v", got[0])
	}
}

func TestRenderKernelHexFormat(t *testing.T) {
	tbl := NewTable()
	tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:80"), Remote: ap("1.2.3.4:443"), State: StateEstablished, UID: 1})
	text := string(tbl.AppendRender(nil, TCP))
	// 10.0.0.2 little-endian is 0200000A; port 80 is 0050.
	if !strings.Contains(text, "0200000A:0050") {
		t.Errorf("kernel hex format missing:\n%s", text)
	}
	// 1.2.3.4 little-endian is 04030201; port 443 is 01BB.
	if !strings.Contains(text, "04030201:01BB") {
		t.Errorf("remote hex format missing:\n%s", text)
	}
}

func TestProtoFiltering(t *testing.T) {
	tbl := NewTable()
	tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:1"), Remote: ap("1.1.1.1:1"), UID: 1})
	tbl.Add(Entry{Proto: UDP, Local: ap("10.0.0.2:2"), Remote: ap("0.0.0.0:0"), UID: 2})
	tcp, _ := AppendParse(nil, tbl.AppendRender(nil, TCP), TCP)
	udp, _ := AppendParse(nil, tbl.AppendRender(nil, UDP), UDP)
	if len(tcp) != 1 || len(udp) != 1 {
		t.Errorf("tcp=%d udp=%d", len(tcp), len(udp))
	}
	if tcp[0].UID != 1 || udp[0].UID != 2 {
		t.Error("entries crossed proto files")
	}
}

func TestSetStateAndRemove(t *testing.T) {
	tbl := NewTable()
	inode := tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:5"), Remote: ap("1.1.1.1:1"), State: StateSynSent, UID: 7})
	tbl.SetState(inode, StateEstablished)
	got, _ := AppendParse(nil, tbl.AppendRender(nil, TCP), TCP)
	if got[0].State != StateEstablished {
		t.Errorf("state: %02x", got[0].State)
	}
	tbl.Remove(inode)
	if tbl.Len() != 0 {
		t.Errorf("len after remove: %d", tbl.Len())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"header\nnot a row\n",
		"header\n0: ZZZZZZZZ:0050 0200000A:0050 01 0:0 00:0 0 5 0 1 x\n",
	}
	for i, text := range cases {
		if _, err := AppendParse(nil, []byte(text), TCP); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
}

// chargeClock is a wall clock whose Sleep waits for nothing and only
// adds up the cost a Reader charges.
type chargeClock struct {
	clock.Real
	sleeps int
	slept  time.Duration
}

func (c *chargeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.slept += d
}

func TestReaderChargesCost(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 10; i++ {
		tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:1"), Remote: ap("1.1.1.1:1"), UID: i})
	}
	clk := &chargeClock{}
	r := NewReader(tbl, clk, CostModel{Base: 5 * time.Millisecond, PerEntry: 100 * time.Microsecond}, 1)
	entries, err := r.AppendParse(nil, TCP)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(entries) != 10 {
		t.Fatalf("entries: %d", len(entries))
	}
	if want := 6 * time.Millisecond; clk.sleeps != 1 || clk.slept != want {
		t.Errorf("charged %d sleeps of %v in all, want one of %v", clk.sleeps, clk.slept, want)
	}
}

func TestCostGrowsWithEntries(t *testing.T) {
	mk := func(n int) time.Duration {
		tbl := NewTable()
		for i := 0; i < n; i++ {
			tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:1"), Remote: ap("1.1.1.1:1"), UID: i})
		}
		clk := &chargeClock{}
		r := NewReader(tbl, clk, CostModel{PerEntry: 50 * time.Microsecond}, 1)
		_, _ = r.AppendParse(nil, TCP)
		return clk.slept
	}
	small, large := mk(5), mk(200)
	if large < 2*small {
		t.Errorf("cost did not grow with table size: %v vs %v (§3.3: overhead increases with active connections)", small, large)
	}
}

func TestAndroidParseCostMatchesFigure5a(t *testing.T) {
	// Figure 5(a): on a ~30-entry table, >75% of parses over 5 ms and
	// >10% over 15 ms. ParseAll reads tcp+tcp6, so per-call cost is two
	// draws.
	tbl := NewTable()
	for i := 0; i < 15; i++ {
		tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:1"), Remote: ap("1.1.1.1:1"), UID: i})
		tbl.Add(Entry{Proto: TCP6, Local: ap("[fd00::2]:1"), Remote: ap("[fd00::3]:1"), UID: i})
	}
	r := NewReader(tbl, clock.NewReal(), AndroidParseCost(), 42)
	over5, over15 := 0, 0
	const n = 150
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := r.ParseAll(); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if d > 5*time.Millisecond {
			over5++
		}
		if d > 15*time.Millisecond {
			over15++
		}
	}
	if frac := float64(over5) / n; frac < 0.70 {
		t.Errorf(">5ms fraction %.2f, paper reports >0.75", frac)
	}
	if frac := float64(over15) / n; frac < 0.05 {
		t.Errorf(">15ms fraction %.2f, paper reports >0.10", frac)
	}
}

func TestPackageManager(t *testing.T) {
	pm := NewPackageManager()
	pm.Install(10083, "com.whatsapp")
	pm.Install(10101, "com.facebook.katana")
	if n, ok := pm.NameForUID(10083); !ok || n != "com.whatsapp" {
		t.Errorf("lookup: %q %v", n, ok)
	}
	if _, ok := pm.NameForUID(99999); ok {
		t.Error("unknown UID resolved")
	}
	if pm.Len() != 2 {
		t.Errorf("len: %d", pm.Len())
	}
}

// Property: any valid entry survives AppendRender/AppendParse for all four proc
// files.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte, lport, rport uint16, uid uint16, v6 bool, udp bool) bool {
		var proto Proto
		var local, remote netip.AddrPort
		if v6 {
			la := netip.AddrFrom16([16]byte{0xfd, 0, a, b, c, d, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
			ra := netip.AddrFrom16([16]byte{0x20, 1, d, c, b, a, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
			local, remote = netip.AddrPortFrom(la, lport), netip.AddrPortFrom(ra, rport)
			proto = TCP6
			if udp {
				proto = UDP6
			}
		} else {
			local = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, a, b, c}), lport)
			remote = netip.AddrPortFrom(netip.AddrFrom4([4]byte{93, d, c, b}), rport)
			proto = TCP
			if udp {
				proto = UDP
			}
		}
		tbl := NewTable()
		tbl.Add(Entry{Proto: proto, Local: local, Remote: remote, State: StateEstablished, UID: int(uid)})
		got, err := AppendParse(nil, tbl.AppendRender(nil, proto), proto)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].Local == local && got[0].Remote == remote && got[0].UID == int(uid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStableOrderByInode(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 20; i++ {
		tbl.Add(Entry{Proto: TCP, Local: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 2}), uint16(1000+i)), Remote: ap("1.1.1.1:1"), UID: i})
	}
	got, _ := AppendParse(nil, tbl.AppendRender(nil, TCP), TCP)
	for i := 1; i < len(got); i++ {
		if got[i].Inode <= got[i-1].Inode {
			t.Fatal("rows not in inode order")
		}
	}
}
