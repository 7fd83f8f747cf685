package measure

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"time"
	"unicode/utf8"
)

// JSON Lines is a record's one text format: one record per line,
// self-describing fields, append-friendly. The live stream
// (`mopeye -jsonl`), a snapshot export and GET /v1/records are plain
// record lines, which ReadJSONL loads back; an upload batch, and so
// the collector's spool, is the same lines after a header (wire.go).

// jsonRecord is the wire form of one Record: the struct tags are the
// definition of the format. appendRecord writes exactly what
// encoding/json writes for it, and the fast scanner (scan.go) reads a
// subset of what encoding/json reads into it; everything outside that
// subset is decoded through this type.
type jsonRecord struct {
	Kind     string `json:"kind"`
	App      string `json:"app"`
	UID      int    `json:"uid,omitempty"`
	Dst      string `json:"dst,omitempty"`
	Domain   string `json:"domain,omitempty"`
	RTTNanos int64  `json:"rtt_ns"`
	AtNanos  int64  `json:"at_unix_ns"`
	NetType  string `json:"net_type,omitempty"`
	ISP      string `json:"isp,omitempty"`
	Country  string `json:"country,omitempty"`
	Device   string `json:"device,omitempty"`
}

func (j jsonRecord) record() (Record, error) {
	var r Record
	switch j.Kind {
	case "TCP":
		r.Kind = KindTCP
	case "DNS":
		r.Kind = KindDNS
	default:
		return r, fmt.Errorf("bad kind %q", j.Kind)
	}
	r.App = j.App
	r.UID = j.UID
	if j.Dst != "" {
		ap, err := netip.ParseAddrPort(j.Dst)
		if err != nil {
			return r, fmt.Errorf("bad dst %q: %v", j.Dst, err)
		}
		r.Dst = ap
	}
	r.Domain = j.Domain
	r.RTT = time.Duration(j.RTTNanos)
	r.At = time.Unix(0, j.AtNanos).UTC()
	r.NetType = j.NetType
	r.ISP = j.ISP
	r.Country = j.Country
	r.Device = j.Device
	return r, nil
}

// appendRecord appends r's JSONL line (newline included) to dst,
// byte for byte what json.Encoder writes for its jsonRecord.
func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, r.Kind.String()...)
	dst = append(dst, `","app":`...)
	dst = appendString(dst, r.App)
	if r.UID != 0 {
		dst = append(dst, `,"uid":`...)
		dst = strconv.AppendInt(dst, int64(r.UID), 10)
	}
	if r.Dst.IsValid() {
		dst = append(dst, `,"dst":`...)
		if r.Dst.Addr().Zone() != "" {
			dst = appendString(dst, r.Dst.String()) // only a zone can need escaping
		} else {
			dst = append(dst, '"')
			dst = r.Dst.AppendTo(dst)
			dst = append(dst, '"')
		}
	}
	dst = appendOptional(dst, `,"domain":`, r.Domain)
	dst = append(dst, `,"rtt_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.RTT), 10)
	dst = append(dst, `,"at_unix_ns":`...)
	dst = strconv.AppendInt(dst, r.At.UnixNano(), 10)
	dst = appendOptional(dst, `,"net_type":`, r.NetType)
	dst = appendOptional(dst, `,"isp":`, r.ISP)
	dst = appendOptional(dst, `,"country":`, r.Country)
	dst = appendOptional(dst, `,"device":`, r.Device)
	return append(dst, '}', '\n')
}

// appendOptional appends an omitempty string member.
func appendOptional(dst []byte, name, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, name...)
	return appendString(dst, s)
}

// appendString appends s as a JSON string with json.Encoder's default
// escaping: quote, backslash and control bytes, the HTML-sensitive
// <, > and &, U+2028/U+2029, and U+FFFD for invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// JSONLEncoder streams records as JSON Lines, one object per line.
type JSONLEncoder struct {
	bw   *bufio.Writer
	line []byte // the record being written, reused
}

// NewJSONLEncoder wraps w for incremental JSONL encoding.
func NewJSONLEncoder(w io.Writer) *JSONLEncoder {
	return &JSONLEncoder{bw: bufio.NewWriter(w)}
}

// Write encodes one record as one line.
func (e *JSONLEncoder) Write(r Record) error {
	e.line = appendRecord(e.line[:0], r)
	_, err := e.bw.Write(e.line)
	return err
}

// Flush pushes buffered lines through to the underlying writer.
func (e *JSONLEncoder) Flush() error { return e.bw.Flush() }

// WriteJSONL writes records as JSON Lines.
func WriteJSONL(w io.Writer, recs []Record) error {
	e := NewJSONLEncoder(w)
	for _, r := range recs {
		if err := e.Write(r); err != nil {
			return err
		}
	}
	return e.Flush()
}

// ReadJSONL loads records written by WriteJSONL (or a JSONLSink),
// tolerating blank lines.
func ReadJSONL(r io.Reader) ([]Record, error) {
	w := wireBuf{r: r}
	var out []Record
	var prev recordCache
	for line := 1; ; line++ {
		var rec Record
		err := w.next(
			func(s *scanner) bool { return s.record(&rec, &prev) },
			func(dec *json.Decoder) error {
				var j jsonRecord
				err := dec.Decode(&j)
				if err == nil {
					rec, err = j.record()
				}
				return err
			})
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("measure: jsonl record %d: %w", line, err)
		}
		out = append(out, rec)
	}
}
