package packet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
)

// TCP option kinds MopEye cares about (§3.4: MSS in the SYN-ACK; window
// scale is mentioned as deliberately unused).
const (
	OptEnd       = 0
	OptNOP       = 1
	OptMSS       = 2
	OptWScale    = 3
	OptSACKPerm  = 4
	OptTimestamp = 8
)

// MSSOption builds the 4-byte MSS option MopEye writes into SYN-ACK
// packets, padded is unnecessary since it is already 4 bytes.
func MSSOption(mss uint16) []byte {
	return []byte{OptMSS, 4, byte(mss >> 8), byte(mss)}
}

// ParseMSS extracts the MSS option value from raw TCP options. ok is
// false when the option is absent or malformed.
func ParseMSS(options []byte) (mss uint16, ok bool) {
	for i := 0; i < len(options); {
		kind := options[i]
		switch kind {
		case OptEnd:
			return 0, false
		case OptNOP:
			i++
			continue
		}
		if i+1 >= len(options) {
			return 0, false
		}
		length := int(options[i+1])
		if length < 2 || i+length > len(options) {
			return 0, false
		}
		if kind == OptMSS {
			if length != 4 {
				return 0, false
			}
			return binary.BigEndian.Uint16(options[i+2 : i+4]), true
		}
		i += length
	}
	return 0, false
}

// PadOptions pads raw options with NOPs (then END) to a 4-byte multiple
// so they can be encoded.
func PadOptions(options []byte) []byte {
	rem := len(options) % 4
	if rem == 0 {
		return options
	}
	padded := append([]byte(nil), options...)
	for len(padded)%4 != 0 {
		padded = append(padded, OptNOP)
	}
	return padded
}

// Builder helpers. SetTCP is the in-place builder the relay path uses:
// the user-space stack and the phone-side stack fill reused Packets
// with it, so a segment allocates nothing. TCPPacket is its allocating
// convenience for tests and the benchmark. UDPPacket allocates one
// packet per datagram; the UDP relay and DNS paths still use it.

// TCPPacket builds an IPv4 or IPv6 TCP packet between two AddrPorts.
// Like every constructor here it is one allocation: the headers live
// in the packet's own storage. payload is referenced, not copied.
func TCPPacket(src, dst netip.AddrPort, flags uint8, seq, ack uint32, window uint16, options, payload []byte) *Packet {
	p := new(Packet)
	p.SetTCP(src, dst, flags, seq, ack, window, options, payload)
	return p
}

// SetTCP fills p in place with what TCPPacket would build, discarding
// its previous contents whole, so a reused Packet makes a segment
// without allocating (options already a 4-byte multiple, as MSSOption
// is). payload and options are referenced, not copied.
func (p *Packet) SetTCP(src, dst netip.AddrPort, flags uint8, seq, ack uint32, window uint16, options, payload []byte) {
	*p = Packet{Payload: payload}
	p.hdr.tcp = TCPHeader{
		SrcPort: src.Port(),
		DstPort: dst.Port(),
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  window,
		Options: PadOptions(options),
	}
	p.TCP = &p.hdr.tcp
	p.setIPHeader(src.Addr(), dst.Addr())
}

// UDPPacket builds an IPv4 or IPv6 UDP packet between two AddrPorts.
func UDPPacket(src, dst netip.AddrPort, payload []byte) *Packet {
	p := &Packet{Payload: payload}
	p.hdr.udp = UDPHeader{SrcPort: src.Port(), DstPort: dst.Port()}
	p.UDP = &p.hdr.udp
	p.setIPHeader(src.Addr(), dst.Addr())
	return p
}

func (p *Packet) setIPHeader(src, dst netip.Addr) {
	if src.Is4() && dst.Is4() {
		p.hdr.ip4 = IPv4Header{TTL: 64, ID: uint16(rand.Uint32()), Src: src, Dst: dst}
		p.IPv4 = &p.hdr.ip4
	} else {
		p.hdr.ip6 = IPv6Header{HopLimit: 64, Src: src.Unmap(), Dst: dst.Unmap()}
		p.IPv6 = &p.hdr.ip6
	}
}

// FlowKey identifies one transport flow direction-sensitively: the tuple
// (src, dst) of the app-originated direction. MainWorker uses it to look
// up the TCP/UDP client for a tunnel packet (pkt-app map in Figure 4).
type FlowKey struct {
	Proto uint8
	Src   netip.AddrPort
	Dst   netip.AddrPort
}

// Flow extracts the FlowKey of a decoded packet.
func Flow(p *Packet) FlowKey {
	k := FlowKey{Src: p.Src(), Dst: p.Dst()}
	switch {
	case p.TCP != nil:
		k.Proto = ProtoTCP
	case p.UDP != nil:
		k.Proto = ProtoUDP
	}
	return k
}

// String renders the flow like "tcp 10.0.0.2:4312->93.184.216.34:443".
func (k FlowKey) String() string {
	proto := "?"
	switch k.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s->%s", proto, k.Src, k.Dst)
}
