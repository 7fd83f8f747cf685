package measure

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{
			Kind: KindTCP, App: "com.whatsapp", UID: 10083,
			Dst:     netip.MustParseAddrPort("158.85.5.211:443"),
			Domain:  "e7.whatsapp.net",
			RTT:     261*time.Millisecond + 347*time.Microsecond,
			At:      time.Date(2016, 9, 1, 10, 30, 0, 0, time.UTC),
			NetType: "LTE", ISP: "Jio 4G", Country: "India", Device: "device-0042",
		},
		{
			Kind: KindDNS, App: "system.dns", UID: 0,
			Dst:     netip.MustParseAddrPort("8.8.8.8:53"),
			Domain:  "graph.facebook.com",
			RTT:     42 * time.Millisecond,
			At:      time.Date(2016, 12, 25, 0, 0, 0, 0, time.UTC),
			NetType: "WiFi", ISP: "WiFi USA", Country: "USA", Device: "device-0001",
		},
	}
}

// roundTrip writes recs as JSON Lines, reads them back, and demands
// deep equality.
func roundTrip(t *testing.T, recs []Record) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

// App and Domain are user-controlled strings: separators, quotes and
// line breaks inside them must survive, not split or end a line.
func TestJSONLRoundTrip(t *testing.T) {
	recs := append(sampleRecords(),
		Record{
			Kind: KindTCP, App: "weird,app", Domain: "a,b.example",
			Dst: netip.MustParseAddrPort("1.1.1.1:1"), RTT: time.Millisecond,
			At: time.Unix(0, 0).UTC(),
		},
		Record{
			Kind: KindTCP, App: `say "hi"\app`, UID: 7, Domain: "line\nbreak\r.example",
			RTT: 3 * time.Millisecond, At: time.Unix(1, 2).UTC(), ISP: "tab\there",
		},
	)
	roundTrip(t, recs)
}

// Zero measurements write nothing and decode to nothing.
func TestExportRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
}

// App names are user-controlled strings; non-ASCII package labels and
// IDN domains must survive the export byte-for-byte.
func TestExportRoundTripUnicode(t *testing.T) {
	recs := []Record{
		{
			Kind: KindTCP, App: "com.例え.アプリ", UID: 10042,
			Dst:    netip.MustParseAddrPort("[2001:db8::1]:443"),
			Domain: "пример.example", RTT: 7 * time.Millisecond,
			At:      time.Date(2016, 6, 1, 0, 0, 0, 1, time.UTC),
			NetType: "WiFi", ISP: "Überwald Telekom", Country: "中国", Device: "device-0007",
		},
		{
			Kind: KindDNS, App: "system.dns",
			Domain: "emoji-🦀.example", RTT: time.Microsecond,
			At: time.Unix(0, 42).UTC(),
			// Dst left zero: the invalid AddrPort must round-trip too.
		},
	}
	roundTrip(t, recs)
}

func TestJSONLRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"kind":"XXX","app":"a","rtt_ns":1,"at_unix_ns":0}` + "\n",            // bad kind
		`{"kind":"TCP","dst":"not-an-addr","rtt_ns":1,"at_unix_ns":0}` + "\n",  // bad dst
		`{"kind":"TCP","app":"a","uid":"zz","rtt_ns":1,"at_unix_ns":0}` + "\n", // bad uid
		`{"kind":"TCP","app":"a","rtt_ns":"abc","at_unix_ns":0}` + "\n",        // bad rtt
		`{"kind":"TCP","app":"a","rtt_ns":1,"at_unix_ns":"xyz"}` + "\n",        // bad time
		`{"kind":` + "\n", // truncated JSON
	}
	for i, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed line accepted", i)
		}
	}
}

// The incremental encoder must produce byte-identical output to the
// batch helper — sinks and snapshot exports may never diverge.
func TestEncodersMatchBatchOutput(t *testing.T) {
	recs := sampleRecords()
	var batch, inc bytes.Buffer
	if err := WriteJSONL(&batch, recs); err != nil {
		t.Fatal(err)
	}
	e := NewJSONLEncoder(&inc)
	for _, r := range recs {
		if err := e.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if batch.String() != inc.String() {
		t.Error("JSONLEncoder output diverges from WriteJSONL")
	}
}
