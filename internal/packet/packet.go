// Package packet implements the IP/TCP/UDP wire codecs MopEye needs to
// parse packets captured from the TUN device and to synthesise the
// user-space TCP stack's replies (§2.2, §2.3 of the paper).
//
// A TUN device is a point-to-point IP link, so everything read from it is
// a raw IP packet. MopEye parses only what it needs: addresses, ports,
// TCP flags, sequence/acknowledgement numbers, and the MSS option it
// writes into SYN-ACKs (§3.4). The codecs here are nevertheless complete
// enough to round-trip arbitrary headers, which the property tests
// exercise.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// Protocol numbers from the IANA registry; only the ones MopEye relays.
const (
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoICMP = 1
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: unsupported IP version")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadHeader   = errors.New("packet: malformed header")
)

// IPv4Header is a decoded IPv4 header. Options are preserved verbatim.
type IPv4Header struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment field
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
	Options  []byte
}

// IPv6Header is a decoded IPv6 fixed header. Extension headers are not
// relayed by MopEye and are treated as payload-opaque.
type IPv6Header struct {
	TrafficClass uint8
	FlowLabel    uint32
	NextHeader   uint8
	HopLimit     uint8
	Src          netip.Addr
	Dst          netip.Addr
}

// TCPHeader is a decoded TCP header.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
	Options []byte // raw options, already padded to 4-byte multiple
}

// Has reports whether all given flag bits are set.
func (h *TCPHeader) Has(flags uint8) bool { return h.Flags&flags == flags }

// FlagString renders the flags in tcpdump style, e.g. "S", "S.", "F.".
func (h *TCPHeader) FlagString() string {
	s := ""
	if h.Has(FlagSYN) {
		s += "S"
	}
	if h.Has(FlagFIN) {
		s += "F"
	}
	if h.Has(FlagRST) {
		s += "R"
	}
	if h.Has(FlagPSH) {
		s += "P"
	}
	if h.Has(FlagACK) {
		s += "."
	}
	return s
}

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
}

// Packet is a fully decoded IP packet, the unit MainWorker processes.
type Packet struct {
	// Exactly one of IPv4/IPv6 is non-nil.
	IPv4 *IPv4Header
	IPv6 *IPv6Header
	// Exactly one of TCP/UDP is non-nil for relayed packets; both nil
	// for protocols MopEye does not handle.
	TCP     *TCPHeader
	UDP     *UDPHeader
	Payload []byte

	// hdr is the storage the header pointers above point into when the
	// packet comes from DecodeInto or a constructor, so a packet is one
	// allocation, not one per header. A Packet is therefore not
	// copyable by value: the copy's pointers would still name the
	// original's storage.
	hdr struct {
		ip4 IPv4Header
		ip6 IPv6Header
		tcp TCPHeader
		udp UDPHeader
	}
}

// Src returns the source address and transport port.
func (p *Packet) Src() netip.AddrPort { return netip.AddrPortFrom(p.srcAddr(), p.srcPort()) }

// Dst returns the destination address and transport port.
func (p *Packet) Dst() netip.AddrPort { return netip.AddrPortFrom(p.dstAddr(), p.dstPort()) }

func (p *Packet) srcAddr() netip.Addr {
	if p.IPv4 != nil {
		return p.IPv4.Src
	}
	if p.IPv6 != nil {
		return p.IPv6.Src
	}
	return netip.Addr{}
}

func (p *Packet) dstAddr() netip.Addr {
	if p.IPv4 != nil {
		return p.IPv4.Dst
	}
	if p.IPv6 != nil {
		return p.IPv6.Dst
	}
	return netip.Addr{}
}

func (p *Packet) srcPort() uint16 {
	if p.TCP != nil {
		return p.TCP.SrcPort
	}
	if p.UDP != nil {
		return p.UDP.SrcPort
	}
	return 0
}

func (p *Packet) dstPort() uint16 {
	if p.TCP != nil {
		return p.TCP.DstPort
	}
	if p.UDP != nil {
		return p.UDP.DstPort
	}
	return 0
}

// IsTCP reports whether the packet carries TCP.
func (p *Packet) IsTCP() bool { return p.TCP != nil }

// IsUDP reports whether the packet carries UDP.
func (p *Packet) IsUDP() bool { return p.UDP != nil }

// String renders a compact tcpdump-like one-liner, used by debug logging
// and the sniffer baseline.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("%s > %s: Flags [%s] seq %d ack %d win %d len %d",
			p.Src(), p.Dst(), p.TCP.FlagString(), p.TCP.Seq, p.TCP.Ack, p.TCP.Window, len(p.Payload))
	case p.UDP != nil:
		return fmt.Sprintf("%s > %s: UDP len %d", p.Src(), p.Dst(), len(p.Payload))
	default:
		return fmt.Sprintf("%s > %s: proto? len %d", p.srcAddr(), p.dstAddr(), len(p.Payload))
	}
}

// Decode parses a raw IP packet as read from the TUN device into a new
// Packet. See DecodeInto for the validation and aliasing rules.
func Decode(raw []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, raw); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a raw IP packet as read from the TUN device into p,
// whose previous contents are discarded whole: no header pointer,
// option slice or payload of an earlier decode survives, and on error p
// is left zero. Decoding into a reused Packet allocates nothing.
//
// It validates structural invariants (lengths, header sizes) but does
// not verify checksums; VerifyChecksums does that separately because
// packets synthesised inside the phone never traverse hardware that
// could corrupt them, mirroring how real TUN stacks skip validation.
//
// The decoded packet is zero-copy: Payload and the header Options
// slices alias raw, so ownership of raw moves to the packet and the
// caller must not modify or reuse the buffer while they are in use.
// Every producer feeding the decoder already satisfies this — the TUN
// device copies packets into its queues on enqueue, making each
// dequeued buffer single-owner. (Payload copying was the top entry of
// the loopback ceiling allocation profile: one full payload copy per
// relayed packet, all GC pressure.)
func DecodeInto(p *Packet, raw []byte) error {
	*p = Packet{}
	err := p.decode(raw)
	if err != nil {
		*p = Packet{}
	}
	return err
}

func (p *Packet) decode(raw []byte) error {
	if len(raw) < 1 {
		return ErrTruncated
	}
	switch raw[0] >> 4 {
	case 4:
		return p.decodeIPv4(raw)
	case 6:
		return p.decodeIPv6(raw)
	default:
		return ErrBadVersion
	}
}

func (p *Packet) decodeIPv4(raw []byte) error {
	if len(raw) < 20 {
		return ErrTruncated
	}
	ihl := int(raw[0]&0x0f) * 4
	if ihl < 20 || len(raw) < ihl {
		return ErrBadHeader
	}
	totalLen := int(binary.BigEndian.Uint16(raw[2:4]))
	if totalLen < ihl || totalLen > len(raw) {
		return ErrBadHeader
	}
	h := &p.hdr.ip4
	*h = IPv4Header{
		TOS:      raw[1],
		ID:       binary.BigEndian.Uint16(raw[4:6]),
		Flags:    raw[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(raw[6:8]) & 0x1fff,
		TTL:      raw[8],
		Protocol: raw[9],
		Src:      netip.AddrFrom4([4]byte(raw[12:16])),
		Dst:      netip.AddrFrom4([4]byte(raw[16:20])),
	}
	if ihl > 20 {
		h.Options = raw[20:ihl:ihl]
	}
	p.IPv4 = h
	return p.decodeTransport(h.Protocol, raw[ihl:totalLen])
}

func (p *Packet) decodeIPv6(raw []byte) error {
	if len(raw) < 40 {
		return ErrTruncated
	}
	payloadLen := int(binary.BigEndian.Uint16(raw[4:6]))
	if 40+payloadLen > len(raw) {
		return ErrBadHeader
	}
	h := &p.hdr.ip6
	*h = IPv6Header{
		TrafficClass: (raw[0]&0x0f)<<4 | raw[1]>>4,
		FlowLabel:    binary.BigEndian.Uint32(raw[0:4]) & 0x000fffff,
		NextHeader:   raw[6],
		HopLimit:     raw[7],
		Src:          netip.AddrFrom16([16]byte(raw[8:24])),
		Dst:          netip.AddrFrom16([16]byte(raw[24:40])),
	}
	p.IPv6 = h
	return p.decodeTransport(h.NextHeader, raw[40:40+payloadLen])
}

func (p *Packet) decodeTransport(proto uint8, seg []byte) error {
	switch proto {
	case ProtoTCP:
		if len(seg) < 20 {
			return ErrTruncated
		}
		dataOff := int(seg[12]>>4) * 4
		if dataOff < 20 || dataOff > len(seg) {
			return ErrBadHeader
		}
		t := &p.hdr.tcp
		*t = TCPHeader{
			SrcPort: binary.BigEndian.Uint16(seg[0:2]),
			DstPort: binary.BigEndian.Uint16(seg[2:4]),
			Seq:     binary.BigEndian.Uint32(seg[4:8]),
			Ack:     binary.BigEndian.Uint32(seg[8:12]),
			Flags:   seg[13] & 0x3f,
			Window:  binary.BigEndian.Uint16(seg[14:16]),
			Urgent:  binary.BigEndian.Uint16(seg[18:20]),
		}
		if dataOff > 20 {
			t.Options = seg[20:dataOff:dataOff]
		}
		p.TCP = t
		p.Payload = seg[dataOff:]
	case ProtoUDP:
		if len(seg) < 8 {
			return ErrTruncated
		}
		udpLen := int(binary.BigEndian.Uint16(seg[4:6]))
		if udpLen < 8 || udpLen > len(seg) {
			return ErrBadHeader
		}
		p.hdr.udp = UDPHeader{
			SrcPort: binary.BigEndian.Uint16(seg[0:2]),
			DstPort: binary.BigEndian.Uint16(seg[2:4]),
		}
		p.UDP = &p.hdr.udp
		p.Payload = seg[8:udpLen:udpLen]
	default:
		p.Payload = seg
	}
	return nil
}

// AppendEncode serialises the packet onto dst and returns the extended
// slice. When dst has enough spare capacity (a pooled buffer from
// tun.Buffer, as the engine's emit path uses), encoding performs no
// allocation at all — the transport segment is written directly into
// its final position instead of being built separately and copied.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	switch {
	case p.IPv4 != nil:
		return p.appendIPv4(dst)
	case p.IPv6 != nil:
		return p.appendIPv6(dst)
	default:
		return dst, ErrBadHeader
	}
}

// transportSize returns the encoded transport-segment length and the IP
// protocol number (0 for a raw payload).
func (p *Packet) transportSize() (int, uint8, error) {
	switch {
	case p.TCP != nil:
		if len(p.TCP.Options)%4 != 0 {
			return 0, 0, fmt.Errorf("%w: TCP options length %d not a multiple of 4", ErrBadHeader, len(p.TCP.Options))
		}
		return 20 + len(p.TCP.Options) + len(p.Payload), ProtoTCP, nil
	case p.UDP != nil:
		return 8 + len(p.Payload), ProtoUDP, nil
	default:
		return len(p.Payload), 0, nil
	}
}

// fillTransport encodes the transport segment into seg, which has
// exactly the length transportSize reported. seg may contain stale
// bytes (it can come from a recycled buffer); every byte is written.
func (p *Packet) fillTransport(seg []byte, src, dst netip.Addr) {
	switch {
	case p.TCP != nil:
		t := p.TCP
		hlen := 20 + len(t.Options)
		binary.BigEndian.PutUint16(seg[0:2], t.SrcPort)
		binary.BigEndian.PutUint16(seg[2:4], t.DstPort)
		binary.BigEndian.PutUint32(seg[4:8], t.Seq)
		binary.BigEndian.PutUint32(seg[8:12], t.Ack)
		seg[12] = uint8(hlen/4) << 4
		seg[13] = t.Flags
		binary.BigEndian.PutUint16(seg[14:16], t.Window)
		binary.BigEndian.PutUint16(seg[16:18], 0)
		binary.BigEndian.PutUint16(seg[18:20], t.Urgent)
		copy(seg[20:], t.Options)
		copy(seg[hlen:], p.Payload)
		csum := transportChecksum(ProtoTCP, src, dst, seg)
		binary.BigEndian.PutUint16(seg[16:18], csum)
	case p.UDP != nil:
		binary.BigEndian.PutUint16(seg[0:2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(seg[2:4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(seg[4:6], uint16(len(seg)))
		binary.BigEndian.PutUint16(seg[6:8], 0)
		copy(seg[8:], p.Payload)
		csum := transportChecksum(ProtoUDP, src, dst, seg)
		if csum == 0 {
			csum = 0xffff // RFC 768: transmitted zero means "no checksum"
		}
		binary.BigEndian.PutUint16(seg[6:8], csum)
	default:
		copy(seg, p.Payload)
	}
}

// grow extends b by n bytes, reusing capacity when available.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n)
	copy(nb, b)
	return nb
}

func (p *Packet) appendIPv4(dst []byte) ([]byte, error) {
	h := p.IPv4
	if len(h.Options)%4 != 0 {
		return dst, fmt.Errorf("%w: IPv4 options length %d not a multiple of 4", ErrBadHeader, len(h.Options))
	}
	if !h.Src.Is4() || !h.Dst.Is4() {
		return dst, fmt.Errorf("%w: IPv4 header with non-IPv4 address", ErrBadHeader)
	}
	segLen, proto, err := p.transportSize()
	if err != nil {
		return dst, err
	}
	if proto != 0 {
		h.Protocol = proto
	}
	ihl := 20 + len(h.Options)
	base := len(dst)
	dst = grow(dst, ihl+segLen)
	raw := dst[base:]
	raw[0] = 4<<4 | uint8(ihl/4)
	raw[1] = h.TOS
	binary.BigEndian.PutUint16(raw[2:4], uint16(len(raw)))
	binary.BigEndian.PutUint16(raw[4:6], h.ID)
	binary.BigEndian.PutUint16(raw[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	raw[8] = h.TTL
	raw[9] = h.Protocol
	src := h.Src.As4()
	dstA := h.Dst.As4()
	copy(raw[12:16], src[:])
	copy(raw[16:20], dstA[:])
	copy(raw[20:ihl], h.Options)
	binary.BigEndian.PutUint16(raw[10:12], headerChecksum(raw[:ihl]))
	p.fillTransport(raw[ihl:], h.Src, h.Dst)
	return dst, nil
}

func (p *Packet) appendIPv6(dst []byte) ([]byte, error) {
	h := p.IPv6
	if !h.Src.Is6() || h.Src.Is4In6() || !h.Dst.Is6() || h.Dst.Is4In6() {
		return dst, fmt.Errorf("%w: IPv6 header with non-IPv6 address", ErrBadHeader)
	}
	segLen, proto, err := p.transportSize()
	if err != nil {
		return dst, err
	}
	if proto != 0 {
		h.NextHeader = proto
	}
	base := len(dst)
	dst = grow(dst, 40+segLen)
	raw := dst[base:]
	binary.BigEndian.PutUint32(raw[0:4], 6<<28|uint32(h.TrafficClass)<<20|h.FlowLabel&0x000fffff)
	binary.BigEndian.PutUint16(raw[4:6], uint16(segLen))
	raw[6] = h.NextHeader
	raw[7] = h.HopLimit
	src := h.Src.As16()
	dstA := h.Dst.As16()
	copy(raw[8:24], src[:])
	copy(raw[24:40], dstA[:])
	p.fillTransport(raw[40:], h.Src, h.Dst)
	return dst, nil
}

// headerChecksum computes the IPv4 header checksum over hdr with the
// checksum field zeroed by the caller (the field bytes are skipped).
func headerChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 { // checksum field itself
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// transportChecksum computes the TCP/UDP checksum including the
// IPv4/IPv6 pseudo-header. The checksum field inside seg must be zero.
func transportChecksum(proto uint8, src, dst netip.Addr, seg []byte) uint16 {
	return ^fold(transportSum(proto, src, dst, seg))
}

// transportSum is the unfolded one's-complement sum of the pseudo-header
// and seg, checksum field included as it stands.
func transportSum(proto uint8, src, dst netip.Addr, seg []byte) uint64 {
	sum := addrSum(uint64(proto)+uint64(len(seg)), src)
	return onesSum(addrSum(sum, dst), seg)
}

func addrSum(sum uint64, a netip.Addr) uint64 {
	if a.Is4() {
		b := a.As4()
		return sum + uint64(binary.BigEndian.Uint32(b[:]))
	}
	b := a.As16()
	return onesSum(sum, b[:])
}

// onesSum adds b to sum as big-endian 16-bit words (RFC 1071). The
// one's-complement sum does not depend on byte order up to one final
// swap (RFC 1071 §2(B)), so the loop adds little-endian 32-bit words —
// one plain load each on a little-endian CPU — into an accumulator of
// their own, 32 bytes per iteration, and folds and byte-swaps it once. Since
// 2^16 ≡ 1 mod 0xffff, a 32-bit word contributes the same as its two
// halves. An IP length field describes at most 65,535 bytes, 16,383
// words of under 2^32 each, so neither uint64 can overflow. The 2- and
// 1-byte tail is added big-endian; a trailing odd byte is the high
// byte of a zero-padded word.
func onesSum(sum uint64, b []byte) uint64 {
	var le uint64
	for len(b) >= 32 {
		le += uint64(binary.LittleEndian.Uint32(b[0:4])) +
			uint64(binary.LittleEndian.Uint32(b[4:8])) +
			uint64(binary.LittleEndian.Uint32(b[8:12])) +
			uint64(binary.LittleEndian.Uint32(b[12:16])) +
			uint64(binary.LittleEndian.Uint32(b[16:20])) +
			uint64(binary.LittleEndian.Uint32(b[20:24])) +
			uint64(binary.LittleEndian.Uint32(b[24:28])) +
			uint64(binary.LittleEndian.Uint32(b[28:32]))
		b = b[32:]
	}
	for len(b) >= 4 {
		le += uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	sum += uint64(bits.ReverseBytes16(fold(le)))
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// fold reduces a one's-complement sum to 16 bits.
func fold(sum uint64) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// VerifyChecksums checks the IPv4 header checksum and the transport
// checksum of a raw packet. It returns nil when both are valid (or when
// the packet is IPv6, which has no header checksum).
func VerifyChecksums(raw []byte) error {
	if len(raw) < 1 {
		return ErrTruncated
	}
	switch raw[0] >> 4 {
	case 4:
		if len(raw) < 20 {
			return ErrTruncated
		}
		ihl := int(raw[0]&0x0f) * 4
		if ihl < 20 || len(raw) < ihl {
			return ErrBadHeader
		}
		got := binary.BigEndian.Uint16(raw[10:12])
		if headerChecksum(raw[:ihl]) != got {
			return fmt.Errorf("%w: IPv4 header", ErrBadChecksum)
		}
		totalLen := int(binary.BigEndian.Uint16(raw[2:4]))
		if totalLen > len(raw) || totalLen < ihl {
			return ErrBadHeader
		}
		src, _ := netip.AddrFromSlice(raw[12:16])
		dst, _ := netip.AddrFromSlice(raw[16:20])
		return verifyTransport(raw[9], src, dst, raw[ihl:totalLen])
	case 6:
		if len(raw) < 40 {
			return ErrTruncated
		}
		payloadLen := int(binary.BigEndian.Uint16(raw[4:6]))
		if 40+payloadLen > len(raw) {
			return ErrBadHeader
		}
		src, _ := netip.AddrFromSlice(raw[8:24])
		dst, _ := netip.AddrFromSlice(raw[24:40])
		return verifyTransport(raw[6], src, dst, raw[40:40+payloadLen])
	default:
		return ErrBadVersion
	}
}

func verifyTransport(proto uint8, src, dst netip.Addr, seg []byte) error {
	switch proto {
	case ProtoTCP:
		if len(seg) < 20 {
			return ErrTruncated
		}
	case ProtoUDP:
		if len(seg) < 8 {
			return ErrTruncated
		}
		if binary.BigEndian.Uint16(seg[6:8]) == 0 {
			return nil // checksum disabled
		}
	default:
		return nil
	}
	// Summed with the transmitted checksum in place, a valid segment
	// folds to 0xffff (RFC 1071), so nothing is copied or zeroed.
	if fold(transportSum(proto, src, dst, seg)) != 0xffff {
		return fmt.Errorf("%w: transport", ErrBadChecksum)
	}
	return nil
}
