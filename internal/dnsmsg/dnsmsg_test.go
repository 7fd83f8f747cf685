package dnsmsg

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "graph.facebook.com", TypeA)
	raw, err := q.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.ID != 0x1234 || m.Response || !m.RecursionDesired {
		t.Errorf("header: %+v", m)
	}
	if m.QueryName() != "graph.facebook.com" {
		t.Errorf("name: %q", m.QueryName())
	}
	if m.Questions[0].Type != TypeA || m.Questions[0].Class != ClassIN {
		t.Errorf("question: %+v", m.Questions[0])
	}
}

func TestResponseWithAddress(t *testing.T) {
	q := NewQuery(7, "example.com", TypeA)
	r := NewResponse(q, RCodeOK)
	addr := netip.MustParseAddr("93.184.216.34")
	r.AddAddress("example.com", addr, 300)
	raw, err := r.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !m.Response || m.ID != 7 || m.RCode != RCodeOK {
		t.Errorf("header: %+v", m)
	}
	if len(m.Answers) != 1 {
		t.Fatalf("answers: %d", len(m.Answers))
	}
	got, ok := m.Answers[0].Addr()
	if !ok || got != addr {
		t.Errorf("addr: %v %v", got, ok)
	}
	if m.Answers[0].TTL != 300 {
		t.Errorf("ttl: %d", m.Answers[0].TTL)
	}
}

func TestAAAARecord(t *testing.T) {
	q := NewQuery(9, "v6.example.com", TypeAAAA)
	r := NewResponse(q, RCodeOK)
	addr := netip.MustParseAddr("2606:2800:220:1:248:1893:25c8:1946")
	r.AddAddress("v6.example.com", addr, 60)
	raw, _ := r.Encode()
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := m.Answers[0].Addr()
	if !ok || got != addr {
		t.Errorf("got %v", got)
	}
	if m.Answers[0].Type != TypeAAAA {
		t.Errorf("type %d", m.Answers[0].Type)
	}
}

func TestCNAMERecord(t *testing.T) {
	q := NewQuery(9, "www.example.com", TypeA)
	r := NewResponse(q, RCodeOK)
	r.AddCNAME("www.example.com", "edge.cdn.example.net", 60)
	raw, _ := r.Encode()
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	target, ok := m.Answers[0].CNAME()
	if !ok || target != "edge.cdn.example.net" {
		t.Errorf("cname: %q %v", target, ok)
	}
}

func TestNXDomainResponse(t *testing.T) {
	q := NewQuery(3, "nope.invalid", TypeA)
	r := NewResponse(q, RCodeNXDomain)
	raw, _ := r.Encode()
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.RCode != RCodeNXDomain || len(m.Answers) != 0 {
		t.Errorf("%+v", m)
	}
}

func TestNameCompressionPointer(t *testing.T) {
	// Hand-build a response with a compression pointer: question name
	// at offset 12, answer name is a pointer to it.
	q := NewQuery(0xbeef, "a.bc", TypeA)
	raw, _ := q.Encode()
	raw[7] = 1 // ANCOUNT = 1
	ans := []byte{
		0xc0, 0x0c, // pointer to offset 12
		0, 1, // TYPE A
		0, 1, // CLASS IN
		0, 0, 0, 60, // TTL
		0, 4, // RDLENGTH
		1, 2, 3, 4,
	}
	raw = append(raw, ans...)
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.Answers[0].Name != "a.bc" {
		t.Errorf("compressed name: %q", m.Answers[0].Name)
	}
	addr, _ := m.Answers[0].Addr()
	if addr != netip.MustParseAddr("1.2.3.4") {
		t.Errorf("addr: %v", addr)
	}
}

func TestCompressionLoopRejected(t *testing.T) {
	q := NewQuery(1, "x.y", TypeA)
	raw, _ := q.Encode()
	raw[7] = 1
	// Answer name is a pointer to itself.
	self := len(raw)
	ans := []byte{0xc0, byte(self), 0, 1, 0, 1, 0, 0, 0, 0, 0, 0}
	raw = append(raw, ans...)
	if _, err := Decode(raw); !errors.Is(err, ErrLoop) && !errors.Is(err, ErrBadName) {
		t.Errorf("pointer loop: got %v", err)
	}
}

func TestBadNames(t *testing.T) {
	cases := []string{
		strings.Repeat("a", 64) + ".com", // label > 63
		strings.Repeat("abcdefgh.", 32),  // name > 253
		"double..dot",
	}
	for _, name := range cases {
		m := NewQuery(1, name, TypeA)
		if _, err := m.Encode(); err == nil {
			t.Errorf("name %q encoded without error", name)
		}
	}
}

func TestRootName(t *testing.T) {
	m := NewQuery(1, ".", TypeNS)
	raw, err := m.Encode()
	if err != nil {
		t.Fatalf("root name: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.QueryName() != "" {
		t.Errorf("root decodes to %q", got.QueryName())
	}
}

func TestTruncatedMessages(t *testing.T) {
	q := NewQuery(5, "test.example.com", TypeA)
	raw, _ := q.Encode()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := Decode(raw[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(raw))
		}
	}
}

func TestQuickNameRoundTrip(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyz0123456789-"
	rng := rand.New(rand.NewSource(11))
	f := func(nLabels uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := int(nLabels%5) + 1
		parts := make([]string, labels)
		for i := range parts {
			l := r.Intn(20) + 1
			b := make([]byte, l)
			for j := range b {
				b[j] = letters[r.Intn(len(letters))]
			}
			parts[i] = string(b)
		}
		name := strings.Join(parts, ".")
		q := NewQuery(uint16(r.Uint32()), name, TypeA)
		raw, err := q.Encode()
		if err != nil {
			return true // over-length names are allowed to fail
		}
		m, err := Decode(raw)
		return err == nil && m.QueryName() == name
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		raw := make([]byte, rng.Intn(100))
		rng.Read(raw)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %x: %v", raw, r)
				}
			}()
			_, _ = Decode(raw)
		}()
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	m := &Message{
		ID: 42, Response: true, OpCode: 2, Authoritative: true,
		Truncated: true, RecursionDesired: true, RecursionAvailable: true,
		RCode: RCodeServFail,
	}
	raw, err := m.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.OpCode != 2 || !got.Authoritative || !got.Truncated ||
		!got.RecursionDesired || !got.RecursionAvailable || got.RCode != RCodeServFail {
		t.Errorf("flags lost: %+v", got)
	}
}

// FuzzDNSDecode feeds Decode the bytes an app can put in a DNS query
// through the tunnel. It must not panic, every error must be one of
// the package's sentinels, and every name it returns must fit the
// 255-octet wire limit (253 dotted characters) however many
// compression pointers built it. The committed corpus
// (testdata/fuzz/FuzzDNSDecode) holds a query, a response whose answer
// name is a compression pointer, a pointer loop, a truncated header,
// and a name one pointer stretches to 255 characters.
func FuzzDNSDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Decode(raw)
		if err != nil {
			for _, sentinel := range []error{ErrTruncated, ErrBadName, ErrTooLong, ErrLoop} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("Decode returned a non-sentinel error: %v", err)
		}
		names := []string{}
		for _, q := range m.Questions {
			names = append(names, q.Name)
		}
		for _, rs := range [][]Resource{m.Answers, m.Authority, m.Additional} {
			for _, r := range rs {
				names = append(names, r.Name)
			}
		}
		for _, name := range names {
			if len(name) > 253 {
				t.Fatalf("decoded a %d-character name", len(name))
			}
		}
	})
}
