package packet

import (
	"encoding/binary"
	"net/netip"
)

// PeekFlowKey extracts the flow key {proto, src, dst} of a raw IP packet
// without decoding it: only the fixed header fields needed for routing
// are read, nothing is copied, and nothing is allocated (FlowKey and the
// netip types are plain values).
//
// This is the multi-worker reader's fast path. Routing a tunnel packet
// to its pinned worker needs only the flow key, so the reader peeks
// here and defers the full Decode — options, payload copy, header
// structs — to the worker that owns the flow's shard. The peek applies
// exactly the structural validation Decode applies to the fields it
// reads, so for every input the two agree: Decode succeeds if and only
// if PeekFlowKey succeeds, and on success the key equals Flow(decoded).
// The property test and fuzz target in peek_test.go pin this down.
func PeekFlowKey(raw []byte) (FlowKey, error) {
	if len(raw) < 1 {
		return FlowKey{}, ErrTruncated
	}
	switch raw[0] >> 4 {
	case 4:
		if len(raw) < 20 {
			return FlowKey{}, ErrTruncated
		}
		ihl := int(raw[0]&0x0f) * 4
		if ihl < 20 || len(raw) < ihl {
			return FlowKey{}, ErrBadHeader
		}
		totalLen := int(binary.BigEndian.Uint16(raw[2:4]))
		if totalLen < ihl || totalLen > len(raw) {
			return FlowKey{}, ErrBadHeader
		}
		src := netip.AddrFrom4([4]byte(raw[12:16]))
		dst := netip.AddrFrom4([4]byte(raw[16:20]))
		return peekTransport(raw[9], src, dst, raw[ihl:totalLen])
	case 6:
		if len(raw) < 40 {
			return FlowKey{}, ErrTruncated
		}
		payloadLen := int(binary.BigEndian.Uint16(raw[4:6]))
		if 40+payloadLen > len(raw) {
			return FlowKey{}, ErrBadHeader
		}
		src := netip.AddrFrom16([16]byte(raw[8:24]))
		dst := netip.AddrFrom16([16]byte(raw[24:40]))
		return peekTransport(raw[6], src, dst, raw[40:40+payloadLen])
	default:
		return FlowKey{}, ErrBadVersion
	}
}

// peekTransport reads the transport ports out of the segment, mirroring
// decodeTransport's validation. Non-TCP/UDP protocols yield the same
// key Flow produces for them: proto 0 and port-0 endpoints.
func peekTransport(proto uint8, src, dst netip.Addr, seg []byte) (FlowKey, error) {
	switch proto {
	case ProtoTCP:
		if len(seg) < 20 {
			return FlowKey{}, ErrTruncated
		}
		dataOff := int(seg[12]>>4) * 4
		if dataOff < 20 || dataOff > len(seg) {
			return FlowKey{}, ErrBadHeader
		}
		return FlowKey{
			Proto: ProtoTCP,
			Src:   netip.AddrPortFrom(src, binary.BigEndian.Uint16(seg[0:2])),
			Dst:   netip.AddrPortFrom(dst, binary.BigEndian.Uint16(seg[2:4])),
		}, nil
	case ProtoUDP:
		if len(seg) < 8 {
			return FlowKey{}, ErrTruncated
		}
		udpLen := int(binary.BigEndian.Uint16(seg[4:6]))
		if udpLen < 8 || udpLen > len(seg) {
			return FlowKey{}, ErrBadHeader
		}
		return FlowKey{
			Proto: ProtoUDP,
			Src:   netip.AddrPortFrom(src, binary.BigEndian.Uint16(seg[0:2])),
			Dst:   netip.AddrPortFrom(dst, binary.BigEndian.Uint16(seg[2:4])),
		}, nil
	default:
		return FlowKey{
			Src: netip.AddrPortFrom(src, 0),
			Dst: netip.AddrPortFrom(dst, 0),
		}, nil
	}
}
