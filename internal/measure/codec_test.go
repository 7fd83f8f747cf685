package measure

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// The oracle: the wire codec as it was while encoding/json did all of
// it (commit 322fcc5), kept verbatim as the definition the hand-rolled
// encoder and the fast scanner are differentially tested against.

func toJSONRecord(r Record) jsonRecord {
	j := jsonRecord{
		Kind:     r.Kind.String(),
		App:      r.App,
		UID:      r.UID,
		Domain:   r.Domain,
		RTTNanos: int64(r.RTT),
		AtNanos:  r.At.UnixNano(),
		NetType:  r.NetType,
		ISP:      r.ISP,
		Country:  r.Country,
		Device:   r.Device,
	}
	if r.Dst.IsValid() {
		j.Dst = r.Dst.String()
	}
	return j
}

func oracleEncodeBatch(w io.Writer, b Batch) error {
	enc := json.NewEncoder(w)
	h := batchHeader{V: wireVersion, Device: b.Device, Key: b.Key, Seq: b.Seq, N: len(b.Records)}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, r := range b.Records {
		if err := enc.Encode(toJSONRecord(r)); err != nil {
			return err
		}
	}
	return nil
}

type oracleDecoder struct{ dec *json.Decoder }

func (d *oracleDecoder) Next() (Batch, error) {
	var h batchHeader
	if err := d.dec.Decode(&h); err != nil {
		if err == io.EOF {
			return Batch{}, io.EOF
		}
		return Batch{}, fmt.Errorf("measure: batch header: %w", err)
	}
	if h.V != wireVersion {
		return Batch{}, fmt.Errorf("measure: batch version %d, want %d", h.V, wireVersion)
	}
	if h.Key == "" {
		return Batch{}, fmt.Errorf("measure: batch without idempotency key")
	}
	if h.N < 0 {
		return Batch{}, fmt.Errorf("measure: batch record count %d", h.N)
	}
	preAlloc := h.N
	if preAlloc > 1024 {
		preAlloc = 1024
	}
	b := Batch{Device: h.Device, Key: h.Key, Seq: h.Seq, Records: make([]Record, 0, preAlloc)}
	for i := 0; i < h.N; i++ {
		var j jsonRecord
		if err := d.dec.Decode(&j); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return Batch{}, fmt.Errorf("measure: batch %q record %d/%d: %w", h.Key, i+1, h.N, ErrTruncatedBatch)
			}
			return Batch{}, fmt.Errorf("measure: batch %q record %d: %w", h.Key, i+1, err)
		}
		rec, err := j.record()
		if err != nil {
			return Batch{}, fmt.Errorf("measure: batch %q record %d: %w", h.Key, i+1, err)
		}
		b.Records = append(b.Records, rec)
	}
	return b, nil
}

func oracleReadJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for line := 1; ; line++ {
		var j jsonRecord
		if err := dec.Decode(&j); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("measure: jsonl record %d: %w", line, err)
		}
		rec, err := j.record()
		if err != nil {
			return nil, fmt.Errorf("measure: jsonl record %d: %w", line, err)
		}
		out = append(out, rec)
	}
}

// chunkReader hands its bytes out at most n at a time, so a decoder
// reading through it refills inside values.
type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.b)
	c.b = c.b[n:]
	return n, nil
}

// sameError fails unless got mirrors the oracle's error: present iff
// it is, the same text, the same sentinels.
func sameError(t *testing.T, what string, want, got error) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: error %v, oracle %v", what, got, want)
	}
	if want == nil {
		return
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s: error %q, oracle %q", what, got, want)
	}
	if (want == io.EOF) != (got == io.EOF) || errors.Is(want, ErrTruncatedBatch) != errors.Is(got, ErrTruncatedBatch) {
		t.Fatalf("%s: error %#v classifies differently from oracle's %#v", what, got, want)
	}
}

// checkDecodeMatchesOracle decodes data as a batch stream with the
// oracle and with the BatchDecoder in each of its input modes (bytes in
// memory, a reader, a reader that trickles), and as JSONL, and fails on
// any difference: batches, InputOffset after each, the first error.
func checkDecodeMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	chunk := 1
	if len(data) > 0 {
		chunk += int(data[0] % 23)
	}
	decoders := map[string]*BatchDecoder{
		"bytes":   {w: wireBuf{buf: data}},
		"reader":  NewBatchDecoder(bytes.NewReader(data)),
		"trickle": NewBatchDecoder(&chunkReader{b: data, n: chunk}),
	}
	for name, d := range decoders {
		oracle := oracleDecoder{dec: json.NewDecoder(bytes.NewReader(data))}
		for i := 0; ; i++ {
			what := fmt.Sprintf("%s decoder, batch %d", name, i)
			want, wantErr := oracle.Next()
			got, err := d.Next()
			sameError(t, what, wantErr, err)
			if err != nil {
				break
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
			}
			if off, wantOff := d.InputOffset(), oracle.dec.InputOffset(); off != wantOff {
				t.Fatalf("%s: InputOffset %d, oracle %d", what, off, wantOff)
			}
		}
	}

	want, wantErr := oracleReadJSONL(bytes.NewReader(data))
	got, err := ReadJSONL(&chunkReader{b: data, n: chunk})
	sameError(t, "ReadJSONL", wantErr, err)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadJSONL:\n got %+v\nwant %+v", got, want)
	}
}

// gen deals fuzz bytes out as the fields of a Batch.
type gen struct{ b []byte }

func (g *gen) take(n int) []byte {
	n = min(n, len(g.b))
	out := g.b[:n]
	g.b = g.b[n:]
	return out
}

func (g *gen) byte() byte {
	if b := g.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (g *gen) str() string { return string(g.take(int(g.byte() % 12))) }

func (g *gen) int64() int64 {
	var v [8]byte
	copy(v[:], g.take(8))
	return int64(binary.LittleEndian.Uint64(v[:]))
}

func (g *gen) dst() netip.AddrPort {
	port := uint16(g.int64())
	var a4 [4]byte
	var a16 [16]byte
	switch g.byte() % 4 {
	case 1:
		copy(a4[:], g.take(4))
		return netip.AddrPortFrom(netip.AddrFrom4(a4), port)
	case 2:
		copy(a16[:], g.take(16))
		return netip.AddrPortFrom(netip.AddrFrom16(a16), port)
	case 3:
		a16[0], a16[1], a16[15] = 0xfe, 0x80, g.byte()
		return netip.AddrPortFrom(netip.AddrFrom16(a16).WithZone(g.str()), port)
	}
	return netip.AddrPort{}
}

func (g *gen) batch() Batch {
	b := Batch{Device: g.str(), Key: g.str(), Seq: int(g.int64())}
	for n := g.byte() % 4; n > 0; n-- {
		r := Record{
			Kind:    Kind(g.byte() % 2),
			App:     g.str(),
			UID:     int(int32(g.int64())),
			Dst:     g.dst(),
			Domain:  g.str(),
			RTT:     time.Duration(g.int64()),
			NetType: g.str(),
			ISP:     g.str(),
			Country: g.str(),
			Device:  g.str(),
		}
		if g.byte()%3 != 0 { // else the zero time, as the benchmark's records carry
			r.At = time.Unix(0, g.int64()).UTC()
		}
		b.Records = append(b.Records, r)
	}
	return b
}

// asDecoded is b as a decoder returns it: invalid UTF-8 (an IPv6 zone's
// too) has become U+FFFD on the wire, and times are what their UnixNano
// says.
func asDecoded(b Batch) Batch {
	valid := func(s string) string { return string([]rune(s)) }
	out := Batch{Device: valid(b.Device), Key: valid(b.Key), Seq: b.Seq, Records: make([]Record, len(b.Records))}
	for i, r := range b.Records {
		r.App, r.Domain, r.NetType = valid(r.App), valid(r.Domain), valid(r.NetType)
		r.ISP, r.Country, r.Device = valid(r.ISP), valid(r.Country), valid(r.Device)
		r.Dst = netip.AddrPortFrom(r.Dst.Addr().WithZone(valid(r.Dst.Addr().Zone())), r.Dst.Port())
		r.At = time.Unix(0, r.At.UnixNano()).UTC()
		out.Records[i] = r
	}
	return out
}

// checkEncodeMatchesOracle fails unless AppendBatch, EncodeBatch and
// the JSONL encoder write b exactly as encoding/json did, and the
// encoding decodes back to b, on the scanner's fast path (when the
// oracle decodes it at all: a batch without a key, or an IPv6 zone no
// address parser takes back, does not).
func checkEncodeMatchesOracle(t *testing.T, b Batch) {
	t.Helper()
	var want bytes.Buffer
	if err := oracleEncodeBatch(&want, b); err != nil {
		t.Fatal(err)
	}
	got := AppendBatch(nil, b)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendBatch:\n got %q\nwant %q", got, want.Bytes())
	}
	var viaWriter, jsonl bytes.Buffer
	if err := EncodeBatch(&viaWriter, b); err != nil || !bytes.Equal(viaWriter.Bytes(), got) {
		t.Fatalf("EncodeBatch (%v) diverges from AppendBatch:\n got %q\nwant %q", err, viaWriter.Bytes(), got)
	}
	if err := WriteJSONL(&jsonl, b.Records); err != nil {
		t.Fatal(err)
	}
	if _, lines, _ := bytes.Cut(got, []byte("\n")); !bytes.Equal(jsonl.Bytes(), lines) {
		t.Fatalf("WriteJSONL diverges from the batch's record lines:\n got %q\nwant %q", jsonl.Bytes(), lines)
	}

	checkDecodeMatchesOracle(t, got)
	back, err := DecodeBatchBytes(got)
	if err != nil {
		return
	}
	if !reflect.DeepEqual(back, asDecoded(b)) {
		t.Fatalf("decode∘encode:\n got %+v\nwant %+v", back, asDecoded(b))
	}
	// Whatever the encoder writes, the scanner reads: no batch of the
	// repo's own making pays for encoding/json.
	var d BatchDecoder
	if s := (scanner{b: got}); !d.scan(&s, new(Batch)) {
		t.Fatalf("scanner declined the encoder's own output at byte %d (reason %d): %q", s.i, s.why, got)
	}
}

// benchBatch is the benchmark's upload: 8 TCP records with the zero
// time (whose UnixNano is a 19-digit negative), one destination, apps
// named bench.appNN (all the same one when sameApp).
func benchBatch(sameApp bool) Batch {
	b := Batch{Device: "sim-0000042", Key: "sim-0000042/b3", Seq: 4}
	for i := 0; i < 8; i++ {
		app := 7
		if !sameApp {
			app = i * 5 % 12
		}
		b.Records = append(b.Records, Record{
			Kind:    KindTCP,
			App:     fmt.Sprintf("bench.app%02d", app),
			UID:     10042,
			Dst:     netip.MustParseAddrPort("203.0.113.1:443"),
			RTT:     time.Duration(8e6 + i*1234567),
			NetType: "LTE",
		})
	}
	return b
}

func FuzzDecodeBatch(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzDecodeBatch: the
	// benchmark's batch, reordered keys, escapes, everything
	// encoding/json tolerates, a batch cut at each kind of boundary)
	// runs with every `go test`; this seed keeps the benchmark's shape
	// tied to today's encoder.
	f.Add(AppendBatch(nil, benchBatch(false)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes as input: the decoders agree on any stream.
		checkDecodeMatchesOracle(t, data)
		// The bytes as a Batch (strings with quotes, control bytes,
		// invalid UTF-8; every address family; extreme integers): the
		// encoders agree, and the encoding decodes back.
		checkEncodeMatchesOracle(t, (&gen{b: data}).batch())
	})
}

// Encoder cases a byte-dealt Batch reaches only by luck.
func TestAppendBatchMatchesOracle(t *testing.T) {
	nasty := []string{"", "plain", `q"uo\te`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>", "AT&T",
		"sep\u2028\u2029", "bad\xff\xfeutf8\xc3", "Telefónica 日本", "trunc\xe2\x80"}
	dsts := []netip.AddrPort{{}, netip.MustParseAddrPort("203.0.113.1:443"), netip.MustParseAddrPort("[2001:db8::1]:0"),
		netip.MustParseAddrPort("[::ffff:192.0.2.1]:65535"), netip.MustParseAddrPort("[fe80::1%eth0]:53"),
		netip.AddrPortFrom(netip.MustParseAddr("fe80::1").WithZone(`z"<\`), 1)}
	times := []time.Time{{}, time.Unix(0, 0).UTC(), time.Unix(0, -1), time.Unix(1700000000, 123456789)}
	for i, s := range nasty {
		b := Batch{Device: s, Key: "k" + s, Seq: -i}
		for j, dst := range dsts {
			b.Records = append(b.Records, Record{
				Kind: Kind(j % 2), App: s, UID: (j - 2) * 1000, Dst: dst, Domain: nasty[(i+j)%len(nasty)],
				RTT: time.Duration(j-1) * time.Millisecond, At: times[j%len(times)],
				NetType: s, ISP: nasty[(i+2*j)%len(nasty)], Country: s, Device: nasty[(i+3*j)%len(nasty)],
			})
		}
		checkEncodeMatchesOracle(t, b)
	}
	checkEncodeMatchesOracle(t, Batch{})
	checkEncodeMatchesOracle(t, benchBatch(false))
}

// The benchmark's batch must stay on the scanner's fast path: if it
// ever declines (it did for prototypes that stopped at 18 digits — the
// zero time's UnixNano has 19), every record of collector_ingest
// silently pays for encoding/json again.
func TestScannerTakesBenchShapedBatch(t *testing.T) {
	raw := AppendBatch(nil, benchBatch(false))
	if !bytes.Contains(raw, []byte(`"at_unix_ns":-6795364578871345152`)) || !bytes.Contains(raw, []byte(`"dst":"203.0.113.1:443"`)) {
		t.Fatalf("not the benchmark's shape: %s", raw)
	}
	var d BatchDecoder
	var b Batch
	s := scanner{b: raw}
	if !d.scan(&s, &b) {
		t.Fatalf("scanner declined the benchmark-shaped batch at byte %d (reason %d): %q", s.i, s.why, raw[:min(len(raw), s.i+1)])
	}
	if s.i != len(raw)-1 {
		t.Errorf("scanner stopped at byte %d, want %d (just past the last record's brace)", s.i, len(raw)-1)
	}
	if want := asDecoded(benchBatch(false)); !reflect.DeepEqual(b, want) {
		t.Errorf("scanned\n %+v\nwant\n %+v", b, want)
	}
}

// A value that does not fit the buffer yet is rescanned after each
// refill, a bounded number of times, and then handed to encoding/json:
// either way the stream decodes the same.
func TestBatchDecoderRefills(t *testing.T) {
	big := Batch{Device: "d", Key: "big", Seq: 1}
	for i := 0; i < 300; i++ { // ~45 KB: several doublings of the 4 KiB buffer
		big.Records = append(big.Records, wireRec("d", fmt.Sprintf("app.%d", i%7), float64(i), int64(i)))
	}
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = AppendBatch(stream, big)
		stream = AppendBatch(stream, benchBatch(true))
	}
	for _, chunk := range []int{1 << 20, 4096, 1000, 100} { // 100: more than maxRefills refills per big batch
		d := NewBatchDecoder(&chunkReader{b: stream, n: chunk})
		for i := 0; i < 6; i++ {
			b, err := d.Next()
			if err != nil {
				t.Fatalf("chunk %d, batch %d: %v", chunk, i, err)
			}
			want := asDecoded(benchBatch(true))
			if i%2 == 0 {
				want = big
			}
			if !reflect.DeepEqual(b, want) {
				t.Fatalf("chunk %d, batch %d decoded wrong", chunk, i)
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Errorf("chunk %d: end of stream: %v, want io.EOF", chunk, err)
		}
		if d.InputOffset() != int64(len(stream)-1) {
			t.Errorf("chunk %d: InputOffset %d, want %d", chunk, d.InputOffset(), len(stream)-1)
		}
	}
}

// A reader's own failure comes back wrapped, wherever in the batch it
// strikes — the collector tells a body cap (413) from garbage (400) by
// it.
func TestDecodeBatchSurfacesReadError(t *testing.T) {
	raw := AppendBatch(nil, benchBatch(false))
	boom := errors.New("boom")
	for _, cut := range []int{0, 10, len(raw) / 2, len(raw) - 1, len(raw)} {
		r := io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(boom))
		if _, err := DecodeBatch(r); !errors.Is(err, boom) {
			t.Errorf("cut at %d: %v, want the reader's error", cut, err)
		}
	}
}

// The allocation budget of the wire path, so the gain cannot rot:
// encoding into a reused buffer is free, and decoding the benchmark's
// 8 same-app records costs a handful of allocations (53 while
// encoding/json decoded them; EncodeBatch made 23).
func TestWireAllocs(t *testing.T) {
	b := benchBatch(true)
	dst := AppendBatch(nil, b)
	if n := testing.AllocsPerRun(100, func() { dst = AppendBatch(dst[:0], b) }); n != 0 {
		t.Errorf("AppendBatch into a reused buffer: %v allocs, want 0", n)
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(dst))
	if n := testing.AllocsPerRun(100, func() { buf.Reset(); _ = EncodeBatch(&buf, b) }); n > 1 {
		t.Errorf("EncodeBatch: %v allocs, want at most 1", n)
	}
	rd := bytes.NewReader(dst)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(dst)
		if _, err := DecodeBatch(rd); err != nil {
			t.Fatal(err)
		}
	}); n > 20 {
		t.Errorf("DecodeBatch of 8 same-app records: %v allocs, want at most 20", n)
	} else {
		t.Logf("DecodeBatch: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBatchBytes(dst); err != nil {
			t.Fatal(err)
		}
	}); n > 10 {
		t.Errorf("DecodeBatchBytes of 8 same-app records: %v allocs, want at most 10", n)
	} else {
		t.Logf("DecodeBatchBytes: %v allocs", n)
	}
	var jl bytes.Buffer
	e := NewJSONLEncoder(&jl)
	_ = e.Write(b.Records[0])
	if n := testing.AllocsPerRun(100, func() { jl.Reset(); _ = e.Write(b.Records[0]); _ = e.Flush() }); n != 0 {
		t.Errorf("JSONLEncoder.Write: %v allocs, want 0", n)
	}
}

// Which path each kind of input takes (that both paths give the same
// answer is the fuzz target's business).
func TestFastPathCoverage(t *testing.T) {
	fast := func(in string) bool {
		var d BatchDecoder
		var b Batch
		s := scanner{b: []byte(in)}
		return d.scan(&s, &b)
	}
	const hdr = `{"mopeye_batch":1,"device":"d","key":"k","seq":1,"n":1}`
	for in, want := range map[string]bool{
		hdr + `{"kind":"TCP","app":"a","rtt_ns":1,"at_unix_ns":-9223372036854775808}`:           true,
		` {"n":1, "key":"k" ,"mopeye_batch" : 1}` + "\r\n\t" + `{"at_unix_ns":1,"kind":"DNS"} `: true,
		hdr + `{"kind":"TCP","app":"a\n\"\\\/"}`:                                                true,
		hdr + `{"kind":"TCP","app":"é\u2028","isp":"AT\u0026T","country":"\u00E9\ufffd"}`:       true,
		hdr + `{"k\u0069nd":"\u0054CP"}`:                                                        true,
		hdr + `{"kind":"TCP","app":"\ud83d\ude00"}`:                                             false,
		hdr + `{"kind":"TCP","app":"\u12"}`:                                                     false,
		hdr + `{"kind":"TCP","app":"\x"}`:                                                       false,
		hdr + "{\"kind\":\"TCP\",\"app\":\"\xff\"}":                                             false,
		hdr + "{\"kind\":\"TCP\",\"app\":\"a\tb\"}":                                             false,
		hdr + `{"kind":"TCP","kind":"TCP"}`:                                                     false,
		hdr + `{"kind":"TCP","Kind":"TCP"}`:                                                     false,
		hdr + `{"kind":"TCP","app":null}`:                                                       false,
		hdr + `{"kind":"TCP","rtt_ns":1.5}`:                                                     false,
		hdr + `{"kind":"TCP","x":{}}`:                                                           false,
		hdr + `{"kind":"TCP","rtt_ns":1`:                                                        false,
		hdr + `{"kind":"TCP","dst":"nonsense"}`:                                                 false,
		hdr + `{"app":"a"}`:                                                                     false,
		hdr:                                                                                     false,
		`{"mopeye_batch":1,"device":"d","key":"","seq":1,"n":0}`:                                false,
	} {
		if got := fast(in); got != want {
			t.Errorf("scanner took %q: %v, want %v", in, got, want)
		}
	}
}

// A JSONL stream that mixes scanner-shaped and encoding/json-only
// records reads the same as before, line numbers in errors included.
func TestReadJSONLMixedPaths(t *testing.T) {
	in := `{"kind":"TCP","app":"a","rtt_ns":1,"at_unix_ns":1}` + "\n\n" +
		`{"kind":"DNS","APP":"caf\u00e9","rtt_ns":2,"at_unix_ns":2}` + "\n" +
		`{"kind":"TCP","app":"a","rtt_ns":3,"at_unix_ns":3}` + "\n"
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil || len(got) != 3 || got[1].App != "café" || got[2].RTT != 3 {
		t.Fatalf("mixed stream: %+v, %v", got, err)
	}
	_, err = ReadJSONL(strings.NewReader(in + `{"kind":"TCP","uid":"x"}`))
	if err == nil || !strings.Contains(err.Error(), "jsonl record 4") {
		t.Errorf("bad fourth record: %v", err)
	}
}

func BenchmarkAppendBatch(b *testing.B) {
	batch := benchBatch(false)
	dst := AppendBatch(nil, batch)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	for b.Loop() {
		dst = AppendBatch(dst[:0], batch)
	}
}

func BenchmarkDecodeBatchBytes(b *testing.B) {
	// The crowd model's largest US carrier: every record carries an
	// escape ("AT\u0026T").
	escaped := benchBatch(false)
	for i := range escaped.Records {
		escaped.Records[i].ISP, escaped.Records[i].Country = "AT&T", "USA"
	}
	for name, batch := range map[string]Batch{"bench": benchBatch(false), "escaped": escaped} {
		b.Run(name, func(b *testing.B) {
			raw := AppendBatch(nil, batch)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeBatchBytes(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
