// Package dnsmsg implements the subset of the DNS wire format (RFC 1035)
// MopEye needs: it parses app DNS queries captured from the TUN so that
// the UDP relay can forward them, match responses to queries, and time
// the query/response pair as the DNS RTT (§2.4).
//
// MopEye does not resolve names itself; it relays. The codec must still
// be complete enough to (a) extract the queried name for the
// crowdsourcing records (the dataset reports 35,351 destination domains)
// and (b) build responses in the simulated DNS server substrate.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Record types.
const (
	TypeA     = 1
	TypeNS    = 2
	TypeCNAME = 5
	TypeSOA   = 6
	TypePTR   = 12
	TypeMX    = 15
	TypeTXT   = 16
	TypeAAAA  = 28
)

// Classes.
const ClassIN = 1

// Response codes.
const (
	RCodeOK       = 0
	RCodeFormat   = 1
	RCodeServFail = 2
	RCodeNXDomain = 3
)

// Errors.
var (
	ErrTruncated = errors.New("dnsmsg: truncated message")
	ErrBadName   = errors.New("dnsmsg: malformed name")
	ErrTooLong   = errors.New("dnsmsg: name too long")
	ErrLoop      = errors.New("dnsmsg: compression pointer loop")
)

// Question is one DNS question.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// Resource is one resource record. Data holds the raw RDATA; for A/AAAA
// records the Addr helper decodes it.
type Resource struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// Addr decodes an A or AAAA record's address.
func (r *Resource) Addr() (netip.Addr, bool) {
	switch r.Type {
	case TypeA:
		if len(r.Data) == 4 {
			a, _ := netip.AddrFromSlice(r.Data)
			return a, true
		}
	case TypeAAAA:
		if len(r.Data) == 16 {
			a, _ := netip.AddrFromSlice(r.Data)
			return a, true
		}
	}
	return netip.Addr{}, false
}

// CNAME decodes a CNAME record's target name. The stored data must have
// been encoded without compression, as Encode produces.
func (r *Resource) CNAME() (string, bool) {
	if r.Type != TypeCNAME {
		return "", false
	}
	name, _, err := decodeName(r.Data, 0, r.Data)
	if err != nil {
		return "", false
	}
	return name, true
}

// Message is a decoded DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	OpCode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              uint8
	Questions          []Question
	Answers            []Resource
	Authority          []Resource
	Additional         []Resource
}

// QueryName returns the first question's name, or "" when there is none.
// This is what MopEye records as the destination domain.
func (m *Message) QueryName() string {
	if len(m.Questions) == 0 {
		return ""
	}
	return m.Questions[0].Name
}

// NewQuery builds a standard recursive query for name with the given
// type.
func NewQuery(id uint16, name string, qtype uint16) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// NewResponse builds a response mirroring a query.
func NewResponse(q *Message, rcode uint8) *Message {
	return &Message{
		ID:                 q.ID,
		Response:           true,
		RCode:              rcode,
		RecursionDesired:   q.RecursionDesired,
		RecursionAvailable: true,
		Questions:          append([]Question(nil), q.Questions...),
	}
}

// AddAddress appends an A/AAAA answer for name.
func (m *Message) AddAddress(name string, addr netip.Addr, ttl uint32) {
	r := Resource{Name: name, Class: ClassIN, TTL: ttl}
	if addr.Is4() {
		r.Type = TypeA
		b := addr.As4()
		r.Data = b[:]
	} else {
		r.Type = TypeAAAA
		b := addr.As16()
		r.Data = b[:]
	}
	m.Answers = append(m.Answers, r)
}

// AddCNAME appends a CNAME answer pointing name at target.
func (m *Message) AddCNAME(name, target string, ttl uint32) {
	data, err := encodeName(nil, target)
	if err != nil {
		return
	}
	m.Answers = append(m.Answers, Resource{
		Name: name, Type: TypeCNAME, Class: ClassIN, TTL: ttl, Data: data,
	})
}

// Encode serialises the message. Names are encoded without compression,
// which is always legal.
func (m *Message) Encode() ([]byte, error) {
	buf := make([]byte, 12, 64)
	binary.BigEndian.PutUint16(buf[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.OpCode&0x0f) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0x0f)
	binary.BigEndian.PutUint16(buf[2:4], flags)
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[8:10], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(m.Additional)))
	var err error
	for _, q := range m.Questions {
		buf, err = encodeName(buf, q.Name)
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, sec := range [][]Resource{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			buf, err = encodeName(buf, r.Name)
			if err != nil {
				return nil, err
			}
			buf = binary.BigEndian.AppendUint16(buf, r.Type)
			buf = binary.BigEndian.AppendUint16(buf, r.Class)
			buf = binary.BigEndian.AppendUint32(buf, r.TTL)
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Data)))
			buf = append(buf, r.Data...)
		}
	}
	return buf, nil
}

// Decode parses a DNS message, supporting name compression.
func Decode(raw []byte) (*Message, error) {
	if len(raw) < 12 {
		return nil, ErrTruncated
	}
	m := &Message{ID: binary.BigEndian.Uint16(raw[0:2])}
	flags := binary.BigEndian.Uint16(raw[2:4])
	m.Response = flags&(1<<15) != 0
	m.OpCode = uint8(flags >> 11 & 0x0f)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = uint8(flags & 0x0f)
	qd := int(binary.BigEndian.Uint16(raw[4:6]))
	an := int(binary.BigEndian.Uint16(raw[6:8]))
	ns := int(binary.BigEndian.Uint16(raw[8:10]))
	ar := int(binary.BigEndian.Uint16(raw[10:12]))
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := decodeName(raw, off, raw)
		if err != nil {
			return nil, err
		}
		off = n
		if off+4 > len(raw) {
			return nil, ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(raw[off : off+2]),
			Class: binary.BigEndian.Uint16(raw[off+2 : off+4]),
		})
		off += 4
	}
	var err error
	m.Answers, off, err = decodeResources(raw, off, an)
	if err != nil {
		return nil, err
	}
	m.Authority, off, err = decodeResources(raw, off, ns)
	if err != nil {
		return nil, err
	}
	m.Additional, _, err = decodeResources(raw, off, ar)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func decodeResources(raw []byte, off, count int) ([]Resource, int, error) {
	var out []Resource
	for i := 0; i < count; i++ {
		name, n, err := decodeName(raw, off, raw)
		if err != nil {
			return nil, 0, err
		}
		off = n
		if off+10 > len(raw) {
			return nil, 0, ErrTruncated
		}
		r := Resource{
			Name:  name,
			Type:  binary.BigEndian.Uint16(raw[off : off+2]),
			Class: binary.BigEndian.Uint16(raw[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(raw[off+4 : off+8]),
		}
		rdlen := int(binary.BigEndian.Uint16(raw[off+8 : off+10]))
		off += 10
		if off+rdlen > len(raw) {
			return nil, 0, ErrTruncated
		}
		r.Data = append([]byte(nil), raw[off:off+rdlen]...)
		off += rdlen
		out = append(out, r)
	}
	return out, off, nil
}

// encodeName appends the uncompressed wire form of name to buf.
func encodeName(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(buf, 0), nil
	}
	if len(name) > 253 {
		return nil, ErrTooLong
	}
	for _, label := range strings.Split(name, ".") {
		if label == "" || len(label) > 63 {
			return nil, ErrBadName
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// decodeName reads a possibly compressed name starting at off within
// whole; raw is the slice being walked (equal to whole except in
// recursion). It returns the dotted name and the offset just past the
// name in the original (non-pointer) stream. However many pointers
// build it, a name longer than 255 octets on the wire (RFC 1035 §3.1)
// is ErrTooLong, so one datagram of pointers cannot expand into
// kilobyte names.
func decodeName(raw []byte, off int, whole []byte) (string, int, error) {
	var labels []string
	jumps := 0
	wire := 1 // octets the name would take uncompressed, root label included
	end := -1 // offset after the name in the original stream
	for {
		if off >= len(raw) {
			return "", 0, ErrTruncated
		}
		b := raw[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return strings.Join(labels, "."), end, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(raw) {
				return "", 0, ErrTruncated
			}
			if end < 0 {
				end = off + 2
			}
			ptr := int(binary.BigEndian.Uint16(raw[off:off+2]) & 0x3fff)
			if ptr >= len(whole) {
				return "", 0, ErrBadName
			}
			jumps++
			if jumps > 32 {
				return "", 0, ErrLoop
			}
			raw = whole
			off = ptr
		case b&0xc0 != 0:
			return "", 0, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(raw) {
				return "", 0, ErrTruncated
			}
			wire += 1 + l
			if wire > 255 {
				return "", 0, ErrTooLong
			}
			labels = append(labels, string(raw[off+1:off+1+l]))
			off += 1 + l
		}
	}
}

// TypeString names a record type for logs and reports.
func TypeString(t uint16) string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	default:
		return fmt.Sprintf("TYPE%d", t)
	}
}
