package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// oracleTransportChecksum is the plain RFC 1071 loop, one 16-bit word
// per iteration: the reference the unrolled kernel must agree with.
func oracleTransportChecksum(proto uint8, src, dst netip.Addr, seg []byte) uint16 {
	var sum uint32
	addAddr := func(a netip.Addr) {
		if a.Is4() {
			b := a.As4()
			sum += uint32(binary.BigEndian.Uint16(b[0:2]))
			sum += uint32(binary.BigEndian.Uint16(b[2:4]))
		} else {
			b := a.As16()
			for i := 0; i < 16; i += 2 {
				sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
			}
		}
	}
	addAddr(src)
	addAddr(dst)
	sum += uint32(proto)
	sum += uint32(len(seg))
	for i := 0; i+1 < len(seg); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(seg[i : i+2]))
	}
	if len(seg)%2 == 1 {
		sum += uint32(seg[len(seg)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// checksumAddrs builds a source and destination of one family from
// arbitrary bytes, zero-padded.
func checksumAddrs(v6 bool, b []byte) (src, dst netip.Addr) {
	var raw [32]byte
	copy(raw[:], b)
	if v6 {
		return netip.AddrFrom16([16]byte(raw[:16])), netip.AddrFrom16([16]byte(raw[16:]))
	}
	return netip.AddrFrom4([4]byte(raw[:4])), netip.AddrFrom4([4]byte(raw[4:8]))
}

// checkChecksum compares the kernel with the oracle on one segment,
// then stores the checksum in the TCP field and checks that the
// segment verifies in place.
func checkChecksum(t *testing.T, v6 bool, addrs, seg []byte) {
	t.Helper()
	src, dst := checksumAddrs(v6, addrs)
	got, want := transportChecksum(ProtoTCP, src, dst, seg), oracleTransportChecksum(ProtoTCP, src, dst, seg)
	if got != want {
		t.Fatalf("v6=%v len %d: checksum %#04x, oracle %#04x", v6, len(seg), got, want)
	}
	if len(seg) < 20 {
		return
	}
	cp := append([]byte(nil), seg...)
	binary.BigEndian.PutUint16(cp[16:18], 0)
	binary.BigEndian.PutUint16(cp[16:18], transportChecksum(ProtoTCP, src, dst, cp))
	if err := verifyTransport(ProtoTCP, src, dst, cp); err != nil {
		t.Fatalf("v6=%v len %d: a segment carrying its own checksum fails to verify: %v", v6, len(seg), err)
	}
}

// TestTransportChecksumMatchesOracle covers every length from 0 to
// 2,000 bytes (odd lengths and every tail the unrolled loop leaves) in
// both address families, with random contents and addresses.
func TestTransportChecksumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	buf := make([]byte, 2000)
	addrs := make([]byte, 32)
	for n := 0; n <= len(buf); n++ {
		for _, v6 := range []bool{false, true} {
			rng.Read(buf[:n])
			rng.Read(addrs)
			checkChecksum(t, v6, addrs, buf[:n])
		}
	}
	// All-ones data drives the widest carries through the fold.
	for i := range buf {
		buf[i] = 0xff
	}
	for i := range addrs {
		addrs[i] = 0xff
	}
	for _, n := range []int{0, 1, 31, 32, 33, 1480, 2000} {
		checkChecksum(t, false, addrs, buf[:n])
		checkChecksum(t, true, addrs, buf[:n])
	}
	// The widest sum an IP length field can describe: 65,535 bytes of
	// ones, the most any accumulator in onesSum ever holds.
	wide := bytes.Repeat([]byte{0xff}, 65535)
	checkChecksum(t, false, addrs, wide)
	checkChecksum(t, true, addrs, wide)
}

// FuzzChecksum fuzzes the checksum kernel every encoded packet runs:
// the unrolled 32-bit sum agrees with the 16-bit oracle loop, and a
// segment carrying its own checksum verifies in place.
func FuzzChecksum(f *testing.F) {
	f.Add(false, []byte{10, 0, 0, 2, 93, 184, 216, 34}, []byte("odd-length segment"))
	f.Add(true, []byte{0xfd, 1, 2, 3}, make([]byte, 64))
	f.Fuzz(func(t *testing.T, v6 bool, addrs, seg []byte) {
		checkChecksum(t, v6, addrs, seg)
	})
}

// TestVerifyRejectsEveryByteFlip inverts each byte of a full-size TCP
// packet and of a UDP packet in turn; every flip must fail
// VerifyChecksums, whether the IPv4 header checksum, a length check or
// the transport checksum catches it.
func TestVerifyRejectsEveryByteFlip(t *testing.T) {
	src := netip.MustParseAddrPort("10.0.0.2:40000")
	dst := netip.MustParseAddrPort("93.184.216.34:443")
	payload := make([]byte, 1460)
	rand.New(rand.NewSource(7)).Read(payload)
	for _, tc := range []struct {
		name string
		pkt  *Packet
	}{
		{"tcp", TCPPacket(src, dst, FlagACK|FlagPSH, 1, 2, 65535, nil, payload)},
		{"udp", UDPPacket(src, dst, payload[:100])},
	} {
		raw, err := tc.pkt.AppendEncode(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if err := VerifyChecksums(raw); err != nil {
			t.Fatalf("%s: intact packet rejected: %v", tc.name, err)
		}
		if tc.name == "udp" {
			// A flip that turns the UDP checksum into zero switches
			// checking off (RFC 768); this fixture's checksum is not
			// one byte flip away from zero.
			if c := binary.BigEndian.Uint16(raw[26:28]); c == 0xff00 || c == 0x00ff {
				t.Fatalf("udp fixture checksum %#04x is one flip from zero", c)
			}
		}
		for i := range raw {
			raw[i] ^= 0xff
			if VerifyChecksums(raw) == nil {
				t.Errorf("%s: flipping byte %d of %d went undetected", tc.name, i, len(raw))
			}
			raw[i] ^= 0xff
		}
	}
}

func BenchmarkTransportChecksum(b *testing.B) {
	seg := make([]byte, 1480)
	rand.New(rand.NewSource(1)).Read(seg)
	src, dst := netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("93.184.216.34")
	for _, bc := range []struct {
		name string
		fn   func(uint8, netip.Addr, netip.Addr, []byte) uint16
	}{
		{"unrolled", transportChecksum},
		{"oracle", oracleTransportChecksum},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(seg)))
			for i := 0; i < b.N; i++ {
				bc.fn(ProtoTCP, src, dst, seg)
			}
		})
	}
}
