package measure

import (
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// storedForm is what a Store reads back for r: every field unchanged
// except At, which loses its monotonic reading (a zero At reads back
// as time.Time{}).
func storedForm(r Record) Record {
	if r.At.IsZero() {
		r.At = time.Time{}
	} else {
		r.At = r.At.Round(0)
	}
	return r
}

// roundTripCases are the record shapes a row must carry exactly.
func roundTripCases() []Record {
	long := strings.Repeat("Telefónica 日本 📶 ", 40)
	return []Record{
		{},
		{Kind: KindTCP, App: "com.example.app", UID: 10042, Dst: netip.MustParseAddrPort("203.0.113.7:443"),
			Domain: "api.example.com", RTT: 31 * time.Millisecond, At: time.Unix(1_500_000_000, 123_456_789).UTC(),
			NetType: "WiFi", ISP: "ISP", Country: "SG", Device: "d1"},
		{Kind: KindDNS, App: "system.dns", UID: 0, Dst: netip.MustParseAddrPort("[2001:db8::53]:53"),
			Domain: "named.example", RTT: 2 * time.Millisecond, At: time.Unix(1_500_000_001, 0).Local(),
			NetType: "LTE", ISP: "ISP", Country: "SG", Device: "d1"},
		{Kind: KindTCP, App: "com.example.app", UID: -1, Dst: netip.MustParseAddrPort("[fe80::1%eth0]:8080"),
			RTT: -time.Nanosecond, At: time.Unix(-62_135_596_800, 1).In(time.FixedZone("UTC+8", 8*3600))},
		{Kind: Kind(7), App: long, UID: math.MaxInt64, Domain: long + "x", RTT: math.MaxInt64,
			At: time.Now(), NetType: long, ISP: "Telefónica", Country: "日本", Device: long},
		{Kind: KindDNS, Dst: netip.AddrPortFrom(netip.Addr{}, 53), At: time.Unix(0, 0).In(time.FixedZone("", -5*3600))},
		{Kind: Kind(-3), App: "", UID: math.MinInt64, Dst: netip.MustParseAddrPort("0.0.0.0:0"),
			At: time.Unix(253_402_300_799, 999_999_999).UTC()},
		{App: "zero instant in a zone", At: time.Time{}.In(time.FixedZone("Z", 3600))},
		// One app under a second UID and on a second network: each is
		// its own source, so none may read back another's fields.
		{Kind: KindTCP, App: "com.example.app", UID: 10043, Dst: netip.MustParseAddrPort("203.0.113.7:443"),
			Domain: "api.example.com", RTT: 32 * time.Millisecond, At: time.Unix(1_500_000_002, 5).UTC(),
			NetType: "LTE", ISP: "Carrier", Country: "MY", Device: "d1"},
	}
}

// checkStored fails unless got is want's stored form.
func checkStored(t *testing.T, where string, got, want Record) {
	t.Helper()
	want = storedForm(want)
	if got != want {
		t.Errorf("%s: read back\n %#v\nwant\n %#v", where, got, want)
	}
}

// Every field of every case reads back through Snapshot, Kind and a
// Subscription, on the first add of each value and on a repeat.
func TestStoreRoundTrip(t *testing.T) {
	cases := roundTripCases()
	s := NewStore()
	sub := s.Subscribe(4*len(cases), nil)
	defer sub.Close()
	for pass := 0; pass < 2; pass++ {
		for _, r := range cases {
			s.Add(r)
		}
	}
	var want []Record
	want = append(want, cases...)
	want = append(want, cases...)

	snap := s.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot %d records; want %d", len(snap), len(want))
	}
	for i, r := range want {
		checkStored(t, "Snapshot", snap[i], r)
		got, ok := sub.Next(nil)
		if !ok {
			t.Fatalf("subscription ended after %d records", i)
		}
		checkStored(t, "Subscription", got, r)
	}
	for _, k := range []Kind{KindTCP, KindDNS, Kind(7), Kind(-3)} {
		var wantK []Record
		for _, r := range want {
			if r.Kind == k {
				wantK = append(wantK, r)
			}
		}
		gotK := s.Kind(k)
		if len(gotK) != len(wantK) {
			t.Fatalf("Kind(%d): %d records, want %d", k, len(gotK), len(wantK))
		}
		for i := range gotK {
			checkStored(t, "Kind", gotK[i], wantK[i])
		}
	}
}

// The log is never scanned by the GC: a row holds no pointers, and it
// stays within 32 bytes.
func TestStoreRowIsPointerFree(t *testing.T) {
	var check func(reflect.Type, string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			check(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	typ := reflect.TypeFor[row]()
	check(typ, "row")
	if typ.Size() > 32 {
		t.Errorf("row is %d bytes, want at most 32", typ.Size())
	}
}

// A record costs its row and the log's append slack; the tables grow
// with distinct values only: here 12 apps on 2 networks are 24
// sources. A Record-per-record log reads 176 B plus slack here.
func TestStoreBytesPerRecord(t *testing.T) {
	const n = 100_000
	apps := make([]string, 12)
	for i := range apps {
		apps[i] = "com.example.app" + string(rune('a'+i))
	}
	dsts := make([]netip.AddrPort, 200)
	domains := make([]string, len(dsts))
	for i := range dsts {
		dsts[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}), 443)
		domains[i] = "host" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".example"
	}
	nets := [...]string{"WiFi", "LTE"}
	base := time.Unix(1_500_000_000, 0).UTC()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for i := 0; i < n; i++ {
		s.Add(Record{
			Kind: KindTCP, App: apps[i%len(apps)], UID: 10000 + i%len(apps),
			Dst: dsts[i%len(dsts)], Domain: domains[i%len(dsts)],
			RTT: time.Duration(i) * time.Microsecond, At: base.Add(time.Duration(i) * time.Millisecond),
			NetType: nets[i/(n/2)], ISP: "ISP", Country: "SG", Device: "d1",
		})
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B per record, %d interned values", perRecord, s.InternedValues())
	if perRecord > 40 {
		t.Errorf("store holds %.1f B per record, want at most 40", perRecord)
	}
	if got, want := s.InternedValues(), len(domains)+len(dsts)+len(apps)*len(nets); got != want {
		t.Errorf("%d interned values, want %d", got, want)
	}
}

// The worst case for the tables: every DNS record names a new domain,
// so each costs its row, its string and its map entry.
func TestStoreBytesPerDistinctDomain(t *testing.T) {
	const n = 100_000
	domains := make([]string, n)
	for i := range domains {
		domains[i] = "host" + strconv.Itoa(i) + ".example"
	}
	resolver := netip.MustParseAddrPort("10.0.0.53:53")
	base := time.Unix(1_500_000_000, 0).UTC()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for i, d := range domains {
		s.Add(Record{
			Kind: KindDNS, App: "system.dns", Dst: resolver, Domain: d,
			RTT: time.Duration(i) * time.Microsecond, At: base.Add(time.Duration(i) * time.Millisecond),
			NetType: "WiFi", ISP: "ISP", Country: "SG", Device: "d1",
		})
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	// The domain strings were live before the store took them.
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B per record, %d interned values", perRecord, s.InternedValues())
	if perRecord > 80 {
		t.Errorf("store holds %.1f B per record, want at most 80", perRecord)
	}
	if got, want := s.InternedValues(), n+2; got != want {
		t.Errorf("%d interned values, want %d", got, want)
	}
}

// fuzzRecord builds a Record from fuzz arguments. zoneKind picks At's
// form: 0 zero, 1 UTC, 2 Local, 3 a fixed zone at offset seconds, and
// anything else the current time with its monotonic reading.
func fuzzRecord(kind int, uid, rtt int64, app, domain string, ip []byte, zone string, port uint16,
	sec int64, nsec uint32, zoneKind uint8, offset int32, netType, isp, country, device string) Record {
	r := Record{
		Kind: Kind(kind), App: app, UID: int(uid), Domain: domain, RTT: time.Duration(rtt),
		NetType: netType, ISP: isp, Country: country, Device: device,
	}
	addr, _ := netip.AddrFromSlice(ip)
	r.Dst = netip.AddrPortFrom(addr.WithZone(zone), port)
	at := time.Unix(sec, int64(nsec))
	switch zoneKind {
	case 0:
	case 1:
		r.At = at.UTC()
	case 2:
		r.At = at.Local()
	case 3:
		r.At = at.In(time.FixedZone("fuzz", int(offset)))
	default:
		r.At = time.Now()
	}
	return r
}

// FuzzStoreRoundTrip fuzzes the store's record rows: any record, added
// to a store, reads back from the snapshot and from a subscription with
// every field unchanged but At's monotonic reading.
func FuzzStoreRoundTrip(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzStoreRoundTrip) holds
	// roundTripCases, one file each.
	f.Fuzz(func(t *testing.T, kind int, uid, rtt int64, app, domain string, ip []byte, zone string, port uint16,
		sec int64, nsec uint32, zoneKind uint8, offset int32, netType, isp, country, device string) {
		r := fuzzRecord(kind, uid, rtt, app, domain, ip, zone, port, sec, nsec, zoneKind, offset,
			netType, isp, country, device)
		s := NewStore()
		sub := s.Subscribe(2, nil)
		defer sub.Close()
		s.Add(Record{App: "other", Domain: domain, Dst: r.Dst, NetType: netType}) // shares some ids
		s.Add(r)
		snap := s.Snapshot()
		if len(snap) != 2 {
			t.Fatalf("%d records", len(snap))
		}
		checkStored(t, "Snapshot", snap[1], r)
		sub.Next(nil)
		got, ok := sub.Next(nil)
		if !ok {
			t.Fatal("subscription ended")
		}
		checkStored(t, "Subscription", got, r)
	})
}
