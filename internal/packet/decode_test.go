package packet

import (
	"fmt"
	"net/netip"
	"testing"
)

var (
	v4App    = netip.MustParseAddrPort("10.0.0.2:4312")
	v4Server = netip.MustParseAddrPort("93.184.216.34:443")
	v6App    = netip.MustParseAddrPort("[fd00::2]:5353")
	v6Server = netip.MustParseAddrPort("[2606:2800:220:1::1]:53")
)

// mustEncode encodes a packet the test built itself.
func mustEncode(t testing.TB, p *Packet) []byte {
	t.Helper()
	raw, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fields renders every exported field of a packet, so two packets are
// field-for-field equal exactly when their renderings are.
func fields(p *Packet) string {
	if p == nil {
		return "<nil>"
	}
	return fmt.Sprintf("ip4=%+v ip6=%+v tcp=%+v udp=%+v payload=%x", p.IPv4, p.IPv6, p.TCP, p.UDP, p.Payload)
}

// ipv4WithOptions is a TCP segment whose IPv4 and TCP headers both
// carry options: the shape that leaves the most behind in a reused
// Packet.
func ipv4WithOptions(t testing.TB) []byte {
	p := TCPPacket(v4App, v4Server, FlagSYN, 1000, 0, 65535, MSSOption(1460), []byte("early data"))
	p.IPv4.Options = []byte{OptNOP, OptNOP, OptNOP, OptNOP}
	return mustEncode(t, p)
}

// dirtyPacket returns a Packet whose four header stores, option slices
// and payload have all been populated by earlier decodes.
func dirtyPacket(t testing.TB) *Packet {
	p := new(Packet)
	for _, raw := range [][]byte{
		mustEncode(t, UDPPacket(v6App, v6Server, []byte("query"))),
		mustEncode(t, TCPPacket(v6App, v6Server, FlagACK, 1, 2, 100, MSSOption(1220), []byte("six"))),
		ipv4WithOptions(t),
	} {
		if err := DecodeInto(p, raw); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// checkReuseMatchesFresh asserts DecodeInto's reset contract for one
// input: decoding into a dirty Packet gives the error and the fields a
// fresh Decode gives, and leaves a zero Packet behind on error.
func checkReuseMatchesFresh(t *testing.T, reused *Packet, raw []byte) {
	t.Helper()
	fresh, freshErr := Decode(raw)
	reuseErr := DecodeInto(reused, raw)
	if freshErr != reuseErr {
		t.Fatalf("fresh err %v, reused err %v for % x", freshErr, reuseErr, raw)
	}
	if freshErr != nil {
		if got, zero := fields(reused), fields(new(Packet)); got != zero {
			t.Fatalf("failed decode left %s behind", got)
		}
		return
	}
	if got, want := fields(reused), fields(fresh); got != want {
		t.Fatalf("reused decode\n got %s\nwant %s", got, want)
	}
}

// TestDecodeIntoDirtyPacket walks a worker's Packet through the shape
// changes that could leak state from one tunnel packet into the next.
func TestDecodeIntoDirtyPacket(t *testing.T) {
	tcpOpts := mustEncode(t, TCPPacket(v4App, v4Server, FlagSYN, 7, 0, 65535, MSSOption(1460), nil))
	udp := mustEncode(t, UDPPacket(v4App, v4Server, []byte("datagram")))
	plain := mustEncode(t, TCPPacket(v4App, v4Server, FlagACK|FlagPSH, 8, 9, 65535, nil, []byte("data")))
	v6 := mustEncode(t, TCPPacket(v6App, v6Server, FlagACK, 1, 2, 100, nil, []byte("six")))
	icmp := mustEncode(t, &Packet{
		IPv4:    &IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: v4App.Addr(), Dst: v4Server.Addr()},
		Payload: []byte{8, 0, 0, 0},
	})
	cases := []struct {
		name       string
		prev, next []byte
	}{
		{"tcp+options then udp", tcpOpts, udp},
		{"ipv4 options then plain", ipv4WithOptions(t), plain},
		{"ipv6 then ipv4", v6, plain},
		{"udp then tcp", udp, plain},
		{"tcp then other protocol", tcpOpts, icmp},
		{"tcp then truncated", tcpOpts, plain[:30]},
		{"tcp then bad version", tcpOpts, []byte{0x10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, prev := new(Packet), append([]byte(nil), tc.prev...)
			if err := DecodeInto(p, prev); err != nil {
				t.Fatal(err)
			}
			checkReuseMatchesFresh(t, p, tc.next)
			// Nothing of the previous buffer may still be referenced.
			want := fields(p)
			for i := range prev {
				prev[i] ^= 0xff
			}
			if got := fields(p); got != want {
				t.Fatalf("decoded packet still aliases the previous buffer:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestDecodeAllocs pins the decoder's allocation counts: none into a
// reused Packet, one (the Packet, headers included) for a fresh one.
func TestDecodeAllocs(t *testing.T) {
	raw := mustEncode(t, TCPPacket(v4App, v4Server, FlagACK|FlagPSH, 7, 9, 65535, nil, make([]byte, 1200)))
	p := dirtyPacket(t)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := DecodeInto(p, raw); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeInto allocs/op = %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Decode(raw); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("Decode allocs/op = %v, want 1", allocs)
	}
}

// TestConstructorAllocs pins the builders at one allocation each.
func TestConstructorAllocs(t *testing.T) {
	payload := []byte("payload")
	var sink *Packet
	if allocs := testing.AllocsPerRun(1000, func() {
		sink = TCPPacket(v4Server, v4App, FlagACK|FlagPSH, 1, 2, 65535, nil, payload)
	}); allocs != 1 {
		t.Errorf("TCPPacket allocs/op = %v, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		sink = UDPPacket(v6Server, v6App, payload)
	}); allocs != 1 {
		t.Errorf("UDPPacket allocs/op = %v, want 1", allocs)
	}
	_ = sink
}

// FuzzDecode fuzzes the decoder's three contracts over arbitrary
// bytes: a reused Packet decodes like a fresh one, PeekFlowKey accepts
// what Decode accepts and yields Flow's key, and an accepted packet
// survives Encode and a second Decode unchanged. The seed corpus is in
// testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkReuseMatchesFresh(t, dirtyPacket(t), raw)
		checkPeekAgainstDecode(t, raw)

		p, err := Decode(raw)
		if err != nil {
			return
		}
		encoded, err := p.Encode()
		if err != nil {
			// The one thing Decode accepts and Encode refuses.
			if p.IPv6 != nil && (p.IPv6.Src.Is4In6() || p.IPv6.Dst.Is4In6()) {
				return
			}
			t.Fatalf("encode of accepted packet: %v", err)
		}
		again, err := Decode(encoded)
		if err != nil {
			t.Fatalf("decode of re-encoded packet: %v", err)
		}
		if got, want := fields(again), fields(p); got != want {
			t.Fatalf("round trip\n got %s\nwant %s", got, want)
		}
	})
}
