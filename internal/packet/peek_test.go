package packet

import (
	"math/rand"
	"net/netip"
	"testing"
)

// checkPeekAgainstDecode asserts the PeekFlowKey contract for one input:
// it must succeed exactly when Decode succeeds, and on success the key
// must equal Flow of the decoded packet. Neither call may panic.
func checkPeekAgainstDecode(t *testing.T, raw []byte) {
	t.Helper()
	key, peekErr := PeekFlowKey(raw)
	pkt, decErr := Decode(raw)
	if (peekErr == nil) != (decErr == nil) {
		t.Fatalf("peek err %v vs decode err %v for %d bytes % x", peekErr, decErr, len(raw), raw)
	}
	if decErr != nil {
		return
	}
	if want := Flow(pkt); key != want {
		t.Fatalf("peeked %v, decoded %v", key, want)
	}
}

// randomValidPacket builds one well-formed packet of a random shape.
func randomValidPacket(rng *rand.Rand) []byte {
	var src, dst netip.AddrPort
	if rng.Intn(2) == 0 {
		src = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(256)), byte(rng.Intn(256))}), uint16(rng.Intn(65536)))
		dst = netip.AddrPortFrom(netip.AddrFrom4([4]byte{93, 184, byte(rng.Intn(256)), byte(rng.Intn(256))}), uint16(rng.Intn(65536)))
	} else {
		var a, b [16]byte
		rng.Read(a[:])
		rng.Read(b[:])
		a[0], b[0] = 0xfd, 0x20 // keep them plain IPv6, not 4-in-6
		src = netip.AddrPortFrom(netip.AddrFrom16(a), uint16(rng.Intn(65536)))
		dst = netip.AddrPortFrom(netip.AddrFrom16(b), uint16(rng.Intn(65536)))
	}
	payload := make([]byte, rng.Intn(256))
	rng.Read(payload)
	var p *Packet
	if rng.Intn(2) == 0 {
		opts := []byte(nil)
		if rng.Intn(2) == 0 {
			opts = MSSOption(uint16(500 + rng.Intn(1000)))
		}
		p = TCPPacket(src, dst, uint8(rng.Intn(64)), rng.Uint32(), rng.Uint32(), uint16(rng.Intn(65536)), opts, payload)
	} else {
		p = UDPPacket(src, dst, payload)
	}
	raw, err := p.AppendEncode(nil)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestPeekFlowKeyMatchesDecode is the property test: over a large sample
// of valid IPv4/IPv6 TCP/UDP packets, every truncation of each, and
// random single-byte corruptions, PeekFlowKey and Decode agree.
func TestPeekFlowKeyMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		raw := randomValidPacket(rng)
		checkPeekAgainstDecode(t, raw)
		// Every truncated prefix must be rejected identically (and
		// without panicking).
		for cut := 0; cut < len(raw); cut++ {
			checkPeekAgainstDecode(t, raw[:cut])
		}
		// Corrupt one byte at a time in the headers; agreement must
		// survive arbitrary garbage in the validated fields.
		for j := 0; j < 8; j++ {
			mut := append([]byte(nil), raw...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			checkPeekAgainstDecode(t, mut)
		}
	}
}

// TestPeekFlowKeyNonTransport checks the ICMP-style case: protocols the
// relay does not handle still peek to the same (proto-0, port-0) key
// Flow produces, so the dispatcher routes them consistently.
func TestPeekFlowKeyNonTransport(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.2")
	dst := netip.MustParseAddr("8.8.8.8")
	p := &Packet{
		IPv4:    &IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: src, Dst: dst},
		Payload: []byte{8, 0, 0, 0},
	}
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := PeekFlowKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	if key.Proto != 0 || key.Src.Port() != 0 || key.Src.Addr() != src || key.Dst.Addr() != dst {
		t.Fatalf("ICMP key: %v", key)
	}
}

// TestPeekFlowKeyZeroAllocs is the hard acceptance gate for the
// dispatch fast path: peeking allocates nothing, for v4 and v6 alike.
func TestPeekFlowKeyZeroAllocs(t *testing.T) {
	v4, _ := TCPPacket(
		netip.MustParseAddrPort("10.0.0.2:4312"),
		netip.MustParseAddrPort("93.184.216.34:443"),
		FlagSYN, 1, 0, 65535, MSSOption(1460), nil).AppendEncode(nil)
	v6, _ := UDPPacket(
		netip.MustParseAddrPort("[fd00::2]:5353"),
		netip.MustParseAddrPort("[2606:2800:220:1::1]:53"),
		[]byte("query")).AppendEncode(nil)
	for name, raw := range map[string][]byte{"ipv4-tcp": v4, "ipv6-udp": v6} {
		raw := raw
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := PeekFlowKey(raw); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: PeekFlowKey allocs/op = %v, want 0", name, allocs)
		}
	}
}

// FuzzPeekFlowKey fuzzes the agreement property over arbitrary bytes:
// the header peek the reader routes every packet by above one worker
// accepts what Decode accepts and yields the decoded Flow's key.
func FuzzPeekFlowKey(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		f.Add(randomValidPacket(rng))
	}
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add([]byte{0x60, 0, 0, 0})
	short := make([]byte, 39)
	short[0] = 0x60
	f.Add(short)
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, peekErr := PeekFlowKey(raw)
		pkt, decErr := Decode(raw)
		if (peekErr == nil) != (decErr == nil) {
			t.Fatalf("peek err %v vs decode err %v", peekErr, decErr)
		}
		if decErr == nil && key != Flow(pkt) {
			t.Fatalf("peeked %v, decoded %v", key, Flow(pkt))
		}
	})
}

// BenchmarkPeekFlowKey contrasts the peek with the full decode the
// dispatcher used to pay per packet; run with -benchmem to see the
// 0 allocs/op.
func BenchmarkPeekFlowKey(b *testing.B) {
	raw, _ := TCPPacket(
		netip.MustParseAddrPort("10.0.0.2:4312"),
		netip.MustParseAddrPort("93.184.216.34:443"),
		FlagACK, 7, 9, 65535, nil, make([]byte, 1200)).AppendEncode(nil)
	b.Run("peek", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PeekFlowKey(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
