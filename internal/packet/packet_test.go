package packet

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	v4a = netip.MustParseAddr("10.0.0.2")
	v4b = netip.MustParseAddr("93.184.216.34")
	v6a = netip.MustParseAddr("fd00::2")
	v6b = netip.MustParseAddr("2606:2800:220:1::1")
)

func TestTCPRoundTripIPv4(t *testing.T) {
	src := netip.AddrPortFrom(v4a, 40001)
	dst := netip.AddrPortFrom(v4b, 443)
	p := TCPPacket(src, dst, FlagSYN, 1000, 0, 65535, MSSOption(1460), nil)
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := VerifyChecksums(raw); err != nil {
		t.Fatalf("checksums: %v", err)
	}
	q, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.Src() != src || q.Dst() != dst {
		t.Errorf("addrs: got %v->%v want %v->%v", q.Src(), q.Dst(), src, dst)
	}
	if !q.TCP.Has(FlagSYN) || q.TCP.Has(FlagACK) {
		t.Errorf("flags: got %08b", q.TCP.Flags)
	}
	if q.TCP.Seq != 1000 {
		t.Errorf("seq: got %d", q.TCP.Seq)
	}
	mss, ok := ParseMSS(q.TCP.Options)
	if !ok || mss != 1460 {
		t.Errorf("MSS: got %d,%v want 1460,true", mss, ok)
	}
}

func TestTCPRoundTripIPv6(t *testing.T) {
	src := netip.AddrPortFrom(v6a, 40001)
	dst := netip.AddrPortFrom(v6b, 443)
	payload := []byte("ipv6 payload")
	p := TCPPacket(src, dst, FlagACK|FlagPSH, 7, 9, 1024, nil, payload)
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := VerifyChecksums(raw); err != nil {
		t.Fatalf("checksums: %v", err)
	}
	q, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.IPv6 == nil {
		t.Fatal("expected IPv6 header")
	}
	if string(q.Payload) != string(payload) {
		t.Errorf("payload: got %q", q.Payload)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src := netip.AddrPortFrom(v4a, 5353)
	dst := netip.AddrPortFrom(v4b, 53)
	p := UDPPacket(src, dst, []byte{0xde, 0xad})
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := VerifyChecksums(raw); err != nil {
		t.Fatalf("checksums: %v", err)
	}
	q, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !q.IsUDP() || q.Dst().Port() != 53 {
		t.Errorf("got %v", q)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"badVersion", []byte{0x50, 0, 0, 0}, ErrBadVersion},
		{"shortIPv4", append([]byte{0x45}, make([]byte, 9)...), ErrTruncated},
		{"shortIPv6", append([]byte{0x60}, make([]byte, 10)...), ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(c.raw); !errors.Is(err, c.want) {
				t.Errorf("got %v want %v", err, c.want)
			}
		})
	}
}

func TestDecodeBadIHL(t *testing.T) {
	raw := make([]byte, 20)
	raw[0] = 0x43 // version 4, IHL 3 (<5): malformed
	if _, err := Decode(raw); !errors.Is(err, ErrBadHeader) {
		t.Errorf("got %v want ErrBadHeader", err)
	}
}

func TestDecodeTotalLenBeyondBuffer(t *testing.T) {
	src := netip.AddrPortFrom(v4a, 1)
	dst := netip.AddrPortFrom(v4b, 2)
	raw, _ := TCPPacket(src, dst, FlagSYN, 0, 0, 0, nil, nil).AppendEncode(nil)
	raw[2], raw[3] = 0xff, 0xff // total length lies
	if _, err := Decode(raw); !errors.Is(err, ErrBadHeader) {
		t.Errorf("got %v want ErrBadHeader", err)
	}
}

func TestChecksumCorruptionDetected(t *testing.T) {
	src := netip.AddrPortFrom(v4a, 40001)
	dst := netip.AddrPortFrom(v4b, 80)
	raw, _ := TCPPacket(src, dst, FlagACK, 5, 6, 100, nil, []byte("x")).AppendEncode(nil)
	raw[len(raw)-1] ^= 0xff
	if err := VerifyChecksums(raw); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted payload: got %v want ErrBadChecksum", err)
	}
	raw2, _ := TCPPacket(src, dst, FlagACK, 5, 6, 100, nil, []byte("x")).AppendEncode(nil)
	raw2[12] ^= 0x01 // corrupt src IP
	if err := VerifyChecksums(raw2); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted header: got %v want ErrBadChecksum", err)
	}
}

func TestFlagString(t *testing.T) {
	h := &TCPHeader{Flags: FlagSYN | FlagACK}
	if h.FlagString() != "S." {
		t.Errorf("got %q want %q", h.FlagString(), "S.")
	}
}

func TestParseMSSMalformed(t *testing.T) {
	cases := [][]byte{
		{OptMSS},               // truncated kind only
		{OptMSS, 4, 0x05},      // short value
		{OptMSS, 3, 0, 0},      // wrong length
		{OptMSS, 1, 0, 0},      // length below minimum
		{OptEnd, OptMSS, 4, 5}, // END before MSS
		{OptTimestamp, 10, 0},  // truncated other option
	}
	for i, opts := range cases {
		if _, ok := ParseMSS(opts); ok {
			t.Errorf("case %d: malformed options parsed as valid", i)
		}
	}
}

func TestParseMSSSkipsNOPs(t *testing.T) {
	opts := []byte{OptNOP, OptNOP, OptMSS, 4, 0x05, 0xb4}
	mss, ok := ParseMSS(opts)
	if !ok || mss != 1460 {
		t.Errorf("got %d,%v", mss, ok)
	}
}

func TestPadOptions(t *testing.T) {
	if got := PadOptions([]byte{1, 2, 3}); len(got)%4 != 0 {
		t.Errorf("padded length %d not multiple of 4", len(got))
	}
	orig := []byte{1, 2, 3, 4}
	if got := PadOptions(orig); len(got) != 4 {
		t.Errorf("already-aligned options grew to %d", len(got))
	}
}

func TestFlowKeyOfTCPPacket(t *testing.T) {
	src := netip.AddrPortFrom(v4a, 40001)
	dst := netip.AddrPortFrom(v4b, 80)
	p := TCPPacket(src, dst, FlagSYN, 0, 0, 0, nil, nil)
	k := Flow(p)
	if k.Proto != ProtoTCP || k.Src != src || k.Dst != dst {
		t.Errorf("flow: %v", k)
	}
}

// TestQuickTCPRoundTrip is a property test: any header/payload
// combination survives encode/decode byte-identically in the fields.
func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, window uint16, payload []byte) bool {
		src := netip.AddrPortFrom(v4a, srcPort)
		dst := netip.AddrPortFrom(v4b, dstPort)
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := TCPPacket(src, dst, flags&0x3f, seq, ack, window, nil, payload)
		raw, err := p.AppendEncode(nil)
		if err != nil {
			return false
		}
		if VerifyChecksums(raw) != nil {
			return false
		}
		q, err := Decode(raw)
		if err != nil {
			return false
		}
		return q.TCP.SrcPort == srcPort && q.TCP.DstPort == dstPort &&
			q.TCP.Seq == seq && q.TCP.Ack == ack &&
			q.TCP.Flags == flags&0x3f && q.TCP.Window == window &&
			string(q.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUDPRoundTrip is the UDP property test, both address
// families.
func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, payload []byte, useV6 bool) bool {
		var src, dst netip.AddrPort
		if useV6 {
			src = netip.AddrPortFrom(v6a, srcPort)
			dst = netip.AddrPortFrom(v6b, dstPort)
		} else {
			src = netip.AddrPortFrom(v4a, srcPort)
			dst = netip.AddrPortFrom(v4b, dstPort)
		}
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := UDPPacket(src, dst, payload)
		raw, err := p.AppendEncode(nil)
		if err != nil {
			return false
		}
		if VerifyChecksums(raw) != nil {
			return false
		}
		q, err := Decode(raw)
		if err != nil {
			return false
		}
		return q.Src() == src && q.Dst() == dst && string(q.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics fuzzes the decoder with random bytes: it
// must return an error or a packet, never panic.
func TestQuickDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(120)
		raw := make([]byte, n)
		rng.Read(raw)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %x: %v", raw, r)
				}
			}()
			_, _ = Decode(raw)
			_ = VerifyChecksums(raw)
		}()
	}
}

func TestEncodeRejectsMismatchedFamilies(t *testing.T) {
	p := &Packet{
		IPv4: &IPv4Header{Src: v6a, Dst: v4b, TTL: 64},
		TCP:  &TCPHeader{},
	}
	if _, err := p.AppendEncode(nil); err == nil {
		t.Error("IPv4 header with IPv6 address encoded without error")
	}
}

func TestEncodeRejectsUnpaddedOptions(t *testing.T) {
	src := netip.AddrPortFrom(v4a, 1)
	dst := netip.AddrPortFrom(v4b, 2)
	p := &Packet{
		IPv4: &IPv4Header{Src: src.Addr(), Dst: dst.Addr(), TTL: 64},
		TCP:  &TCPHeader{SrcPort: 1, DstPort: 2, Options: []byte{2, 4, 5}},
	}
	if _, err := p.AppendEncode(nil); err == nil {
		t.Error("unpadded TCP options encoded without error")
	}
}

func TestUDPZeroChecksumRule(t *testing.T) {
	// A UDP checksum that computes to zero must be transmitted as
	// 0xffff (RFC 768). Construct payloads until one hits the zero
	// case is flaky; instead verify the verifier accepts a zeroed
	// checksum field (checksum disabled).
	src := netip.AddrPortFrom(v4a, 9)
	dst := netip.AddrPortFrom(v4b, 10)
	raw, _ := UDPPacket(src, dst, []byte("abc")).AppendEncode(nil)
	// Zero the UDP checksum field: IPv4 header is 20 bytes; UDP csum at
	// offset 20+6. Then fix nothing else: verifier must treat as "no
	// checksum".
	raw[26], raw[27] = 0, 0
	if err := VerifyChecksums(raw); err != nil {
		t.Errorf("zero (disabled) UDP checksum rejected: %v", err)
	}
}
