package measure

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func wireRec(dev, app string, ms float64, at int64) Record {
	return Record{
		Kind: KindTCP, App: app, UID: 10001,
		Dst:    netip.MustParseAddrPort("203.0.113.9:443"),
		RTT:    time.Duration(ms * float64(time.Millisecond)),
		At:     time.Unix(at, 0).UTC(),
		Device: dev,
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{
		Device: "phone-1",
		Key:    "phone-1/abc/000001",
		Seq:    1,
		Records: []Record{
			wireRec("phone-1", "com.app.a", 10, 100),
			wireRec("", "com.app.b", 20, 200), // unstamped records survive as-is
		},
	}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != b.Device || got.Key != b.Key || got.Seq != b.Seq {
		t.Errorf("header mangled: %+v", got)
	}
	if len(got.Records) != 2 || got.Records[0] != b.Records[0] || got.Records[1] != b.Records[1] {
		t.Errorf("records mangled: %+v", got.Records)
	}
}

func TestBatchDecoderStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 1; i <= 3; i++ {
		b := Batch{Device: "d", Key: strings.Repeat("k", i), Seq: i,
			Records: []Record{wireRec("d", "app", float64(i), int64(i))}}
		if err := EncodeBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewBatchDecoder(&buf)
	for i := 1; i <= 3; i++ {
		b, err := dec.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if b.Seq != i {
			t.Errorf("batch %d out of order: seq %d", i, b.Seq)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Errorf("stream end: %v, want io.EOF", err)
	}
}

// A stream cut mid-batch reports ErrTruncatedBatch, the signal spool
// replay uses to stop at the durable prefix.
func TestBatchDecoderTruncation(t *testing.T) {
	var buf bytes.Buffer
	b := Batch{Device: "d", Key: "k1", Seq: 1, Records: []Record{
		wireRec("d", "a", 1, 1), wireRec("d", "b", 2, 2),
	}}
	if err := EncodeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	// Cut inside the second record line.
	cut := buf.Len() - 10
	dec := NewBatchDecoder(bytes.NewReader(buf.Bytes()[:cut]))
	_, err := dec.Next()
	if !errors.Is(err, ErrTruncatedBatch) {
		t.Errorf("truncated decode: %v, want ErrTruncatedBatch", err)
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	good := Batch{Device: "d", Key: "k", Seq: 1, Records: []Record{wireRec("d", "a", 1, 1)}}
	var one bytes.Buffer
	if err := EncodeBatch(&one, good); err != nil {
		t.Fatal(err)
	}

	cases := map[string]string{
		"empty body":        "",
		"bad version":       `{"mopeye_batch":2,"device":"d","key":"k","seq":1,"n":0}` + "\n",
		"missing key":       `{"mopeye_batch":1,"device":"d","seq":1,"n":0}` + "\n",
		"count undershoot":  `{"mopeye_batch":1,"device":"d","key":"k","seq":1,"n":2}` + "\n" + `{"kind":"TCP","app":"a","rtt_ns":1,"at_unix_ns":1}` + "\n",
		"lying giant count": `{"mopeye_batch":1,"device":"d","key":"k","seq":1,"n":1000000000000}` + "\n",
		"trailing content":  one.String() + one.String(),
		"not a batch":       "garbage\n",
	}
	for name, body := range cases {
		if _, err := DecodeBatch(strings.NewReader(body)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestSortCanonicalDeterministic(t *testing.T) {
	a := []Record{
		wireRec("p2", "app", 10, 50),
		wireRec("p1", "app", 10, 90),
		wireRec("p1", "app", 10, 10),
		wireRec("p1", "zapp", 10, 10),
	}
	b := []Record{a[3], a[0], a[2], a[1]} // a shuffled copy
	SortCanonical(a)
	SortCanonical(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order depends on input permutation at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Device != "p1" || !a[0].At.Equal(time.Unix(10, 0).UTC()) || a[0].App != "app" {
		t.Errorf("unexpected head: %+v", a[0])
	}
}
