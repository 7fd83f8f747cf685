package measure

import (
	"encoding/json"
	"io"
	"math"
	"net/netip"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the fast half of the wire decoder. encoding/json and
// the struct tags of batchHeader and jsonRecord define what a batch or
// a JSONL record is; the scanner below reads a subset of that language
// that holds everything AppendBatch and appendRecord write for a batch
// the decoder accepts (checkEncodeMatchesOracle, in the tests, fails
// otherwise) — a flat object of known, distinct, exactly-spelled keys
// in any order, JSON whitespace anywhere between tokens, strings of
// valid UTF-8 with the escapes of one code unit, integers that fit
// int64 — straight out of a byte slice, with no reflection and no
// intermediate struct. It never
// reports an error: on anything outside that subset (an unknown,
// repeated or differently cased key, invalid UTF-8, a surrogate escape,
// null, a fraction or exponent, a nested value, a value the record
// rules reject, a buffer that ends inside the value) it declines, and
// wireBuf.next decodes the same bytes from the start of the value with
// encoding/json. So the accepted language, and every error, are
// encoding/json's.

// scanner reads one value from b starting at i.
type scanner struct {
	b    []byte
	i    int
	seen uint // members of the current object read so far, one bit each
	why  decline
	tmp  []byte // the last escaped string, unescaped; reused
}

// decline is why the scanner gave a value up.
type decline uint8

const (
	// declineGrammar: not the fast subset; more input cannot change that.
	declineGrammar decline = iota
	// declineShort: the buffer ended inside the value.
	declineShort
	// declineEmpty: the buffer held nothing but whitespace.
	declineEmpty
)

func (s *scanner) fail(why decline) bool {
	s.why = why
	return false
}

// space skips JSON whitespace; false means the buffer ended.
func (s *scanner) space() bool {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\n', '\r', '\t':
		default:
			return true
		}
	}
	return false
}

// open consumes the '{' that starts a value.
func (s *scanner) open() bool {
	if !s.space() {
		return s.fail(declineEmpty)
	}
	if s.b[s.i] != '{' {
		return s.fail(declineGrammar)
	}
	s.i++
	s.seen = 0
	return true
}

// key steps to the object's next member and returns its name, leaving
// the scanner on the first byte of the member's value. more is false
// once the closing brace is consumed. first says no member has been
// read yet (so none is preceded by a comma).
func (s *scanner) key(first bool) (name []byte, more, ok bool) {
	if !s.space() {
		return nil, false, s.fail(declineShort)
	}
	c := s.b[s.i]
	if c == '}' {
		s.i++
		return nil, false, true
	}
	if !first {
		if c != ',' {
			return nil, false, s.fail(declineGrammar)
		}
		s.i++
		if !s.space() {
			return nil, false, s.fail(declineShort)
		}
	}
	if name, ok = s.str(); !ok {
		return nil, false, false
	}
	if !s.space() {
		return nil, false, s.fail(declineShort)
	}
	if s.b[s.i] != ':' {
		return nil, false, s.fail(declineGrammar)
	}
	s.i++
	if !s.space() {
		return nil, false, s.fail(declineShort)
	}
	return name, true, true
}

// str consumes a string and returns its contents: a view of the
// buffer, or, for a string with escapes, of s.tmp — good until the next
// str. It reads what appendString writes and what encoding/json reads
// to the same bytes: valid UTF-8, the two-character escapes, and \uXXXX
// of one code unit.
func (s *scanner) str() ([]byte, bool) {
	if s.b[s.i] != '"' {
		return nil, s.fail(declineGrammar)
	}
	start := s.i + 1
	for j := start; j < len(s.b); j++ {
		c := s.b[j]
		if c == '"' {
			s.i = j + 1
			return s.b[start:j], true
		}
		if c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
			s.tmp = append(s.tmp[:0], s.b[start:j]...)
			return s.strRest(j) // which declines a control byte
		}
	}
	return nil, s.fail(declineShort)
}

// strRest finishes, into s.tmp, a string whose plain prefix is already
// there, from the first escape or non-ASCII byte at s.b[j] on. It
// leaves what encoding/json would repair rather than copy — invalid
// UTF-8, surrogate escapes — to encoding/json.
func (s *scanner) strRest(j int) ([]byte, bool) {
	b := s.b
	for j < len(b) {
		c := b[j]
		switch {
		case c == '"':
			s.i = j + 1
			return s.tmp, true
		case c < 0x20:
			return nil, s.fail(declineGrammar)
		case c >= utf8.RuneSelf:
			if !utf8.FullRune(b[j:]) {
				return nil, s.fail(declineShort) // the buffer ends inside the rune
			}
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				return nil, s.fail(declineGrammar)
			}
			s.tmp = append(s.tmp, b[j:j+size]...)
			j += size
		case c != '\\':
			s.tmp = append(s.tmp, c)
			j++
		case j+1 == len(b):
			return nil, s.fail(declineShort)
		case b[j+1] == 'u':
			if j+6 > len(b) {
				return nil, s.fail(declineShort)
			}
			var r rune
			for _, h := range b[j+2 : j+6] {
				switch {
				case '0' <= h && h <= '9':
					h -= '0'
				case 'a' <= h && h <= 'f':
					h -= 'a' - 10
				case 'A' <= h && h <= 'F':
					h -= 'A' - 10
				default:
					return nil, s.fail(declineGrammar)
				}
				r = r<<4 | rune(h)
			}
			if utf16.IsSurrogate(r) {
				return nil, s.fail(declineGrammar)
			}
			s.tmp = utf8.AppendRune(s.tmp, r)
			j += 6
		default:
			switch c = b[j+1]; c {
			case '"', '\\', '/':
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default:
				return nil, s.fail(declineGrammar)
			}
			s.tmp = append(s.tmp, c)
			j += 2
		}
	}
	return nil, s.fail(declineShort)
}

// int64 consumes a plain decimal integer: optional minus, no leading
// zeros, no fraction, no exponent.
func (s *scanner) int64() (int64, bool) {
	i := s.i
	neg := s.b[i] == '-'
	if neg {
		i++
	}
	digits := i
	var u uint64
	for ; i < len(s.b); i++ {
		d := s.b[i] - '0'
		if d > 9 {
			break
		}
		if u > math.MaxInt64/10 {
			return 0, s.fail(declineGrammar) // out of range, whatever follows
		}
		u = u*10 + uint64(d)
	}
	if i == len(s.b) {
		return 0, s.fail(declineShort)
	}
	switch s.b[i] {
	case ' ', '\n', '\r', '\t', ',', '}':
	default:
		return 0, s.fail(declineGrammar)
	}
	n := i - digits
	if n == 0 || (n > 1 && s.b[digits] == '0') {
		return 0, s.fail(declineGrammar)
	}
	s.i = i
	if neg {
		if u > 1<<63 {
			return 0, s.fail(declineGrammar)
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, s.fail(declineGrammar)
	}
	return int64(u), true
}

// member notes that the member with this bit is being read; a repeated
// member declines (which occurrence wins is encoding/json's business).
func (s *scanner) member(bit uint) bool {
	if s.seen&bit != 0 {
		return s.fail(declineGrammar)
	}
	s.seen |= bit
	return true
}

// strVal consumes the string value of the member with this bit.
func (s *scanner) strVal(bit uint) ([]byte, bool) {
	if !s.member(bit) {
		return nil, false
	}
	return s.str()
}

// int64Val consumes the integer value of the member with this bit.
func (s *scanner) int64Val(bit uint) (int64, bool) {
	if !s.member(bit) {
		return 0, false
	}
	return s.int64()
}

// intVal is int64Val for a field of the platform's int.
func (s *scanner) intVal(bit uint) (int, bool) {
	v, ok := s.int64Val(bit)
	if ok && int64(int(v)) != v {
		return 0, s.fail(declineGrammar)
	}
	return int(v), ok
}

// header consumes a batch header line into h.
func (s *scanner) header(h *batchHeader) bool {
	if !s.open() {
		return false
	}
	for first := true; ; first = false {
		name, more, ok := s.key(first)
		if !ok {
			return false
		}
		if !more {
			return true
		}
		var val []byte
		switch string(name) {
		case "mopeye_batch":
			h.V, ok = s.intVal(1 << 0)
		case "device":
			val, ok = s.strVal(1 << 1)
			h.Device = string(val)
		case "key":
			val, ok = s.strVal(1 << 2)
			h.Key = string(val)
		case "seq":
			h.Seq, ok = s.intVal(1 << 3)
		case "n":
			h.N, ok = s.intVal(1 << 4)
		default:
			ok = s.fail(declineGrammar)
		}
		if !ok {
			return false
		}
	}
}

// recordCache is the previous record a decoder produced. Consecutive
// records of one phone repeat most of their strings (app, network
// type, ISP, country, device, destination), so a field that spells the
// same bytes as the previous record's shares that record's string
// instead of allocating its own; the last destination keeps its parse.
type recordCache struct {
	rec     Record
	dstText string
	dst     netip.AddrPort // ParseAddrPort(dstText)
}

// share returns b as a string, prev itself when it spells the same.
func share(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// record consumes one JSONL record into r and remembers it in prev.
func (s *scanner) record(r *Record, prev *recordCache) bool {
	if !s.open() {
		return false
	}
	*r = Record{}
	var rtt, at int64
	const kindBit = 1 << 0
	for first := true; ; first = false {
		name, more, ok := s.key(first)
		if !ok {
			return false
		}
		if !more {
			break
		}
		var val []byte
		switch string(name) {
		case "kind":
			if val, ok = s.strVal(kindBit); ok {
				switch string(val) {
				case "TCP":
					r.Kind = KindTCP
				case "DNS":
					r.Kind = KindDNS
				default:
					ok = s.fail(declineGrammar)
				}
			}
		case "app":
			val, ok = s.strVal(1 << 1)
			r.App = share(val, prev.rec.App)
		case "uid":
			r.UID, ok = s.intVal(1 << 2)
		case "dst":
			if val, ok = s.strVal(1 << 3); ok && len(val) > 0 {
				if string(val) != prev.dstText {
					text := string(val)
					ap, err := netip.ParseAddrPort(text)
					if err != nil {
						return s.fail(declineGrammar)
					}
					prev.dstText, prev.dst = text, ap
				}
				r.Dst = prev.dst
			}
		case "domain":
			val, ok = s.strVal(1 << 4)
			r.Domain = share(val, prev.rec.Domain)
		case "rtt_ns":
			rtt, ok = s.int64Val(1 << 5)
		case "at_unix_ns":
			at, ok = s.int64Val(1 << 6)
		case "net_type":
			val, ok = s.strVal(1 << 7)
			r.NetType = share(val, prev.rec.NetType)
		case "isp":
			val, ok = s.strVal(1 << 8)
			r.ISP = share(val, prev.rec.ISP)
		case "country":
			val, ok = s.strVal(1 << 9)
			r.Country = share(val, prev.rec.Country)
		case "device":
			val, ok = s.strVal(1 << 10)
			r.Device = share(val, prev.rec.Device)
		default:
			ok = s.fail(declineGrammar)
		}
		if !ok {
			return false
		}
	}
	if s.seen&kindBit == 0 {
		return s.fail(declineGrammar) // no kind is a bad kind
	}
	r.RTT = time.Duration(rtt)
	r.At = time.Unix(0, at).UTC()
	prev.rec = *r
	return true
}

// wireBuf is the window of an input stream both decoders read through:
// the scanner parses buf[pos:] in place, and when it declines a value,
// encoding/json is handed the same bytes followed by the rest of the
// stream.
type wireBuf struct {
	r    io.Reader // nil when buf is the whole input
	rerr error     // how r ended (io.EOF or its failure), once it has
	buf  []byte
	pos  int     // buf[pos:] is not decoded yet
	base int64   // stream offset of buf[0]
	scan scanner // next's scanner, here so it is not allocated per value
}

// A value is offered to the scanner again after each refill that left
// it incomplete, up to maxRefills times: enough for the buffer to
// double from wireBufSize past any accepted upload when the reader
// fills it, and a bound on the rescanning when a reader trickles.
const (
	wireBufSize = 4 << 10
	maxRefills  = 16
)

// offset is the stream offset of the next undecoded byte.
func (w *wireBuf) offset() int64 { return w.base + int64(w.pos) }

// fill reads more of the stream behind buf[pos:], dropping the decoded
// prefix and growing the buffer when the undecoded part fills it. It
// reports false when the stream has nothing more to give (w.rerr says
// why).
func (w *wireBuf) fill() bool {
	if w.r == nil && w.rerr == nil {
		w.rerr = io.EOF
	}
	if w.rerr != nil {
		return false
	}
	if w.pos > 0 {
		n := copy(w.buf, w.buf[w.pos:])
		w.buf = w.buf[:n]
		w.base += int64(w.pos)
		w.pos = 0
	}
	if len(w.buf) >= cap(w.buf)/2 {
		grown := make([]byte, len(w.buf), max(2*cap(w.buf), wireBufSize))
		copy(grown, w.buf)
		w.buf = grown
	}
	for range 100 {
		n, err := w.r.Read(w.buf[len(w.buf):cap(w.buf)])
		w.buf = w.buf[:len(w.buf)+n]
		if err != nil {
			w.rerr = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	w.rerr = io.ErrNoProgress
	return false
}

// tail replays the stream from buf[pos:] on for encoding/json. Bytes it
// pulls from the reader stay in the buffer, so the scanner can resume
// wherever encoding/json's value ended.
type tail struct {
	w *wireBuf
	n int // bytes handed out
}

func (t *tail) Read(p []byte) (int, error) {
	w := t.w
	for w.pos+t.n >= len(w.buf) {
		if !w.fill() {
			return 0, w.rerr
		}
	}
	n := copy(p, w.buf[w.pos+t.n:])
	t.n += n
	return n, nil
}

// next decodes the stream's next value: fast scans it in place; if the
// scanner declines, slow decodes the same bytes from a json.Decoder
// that starts at the value's first byte. It returns io.EOF when only
// whitespace is left before a clean end of stream.
func (w *wireBuf) next(fast func(*scanner) bool, slow func(*json.Decoder) error) error {
	s := &w.scan
	for refills := 0; ; refills++ {
		*s = scanner{b: w.buf, i: w.pos, tmp: s.tmp}
		if fast(s) {
			w.pos = s.i
			return nil
		}
		if s.why == declineGrammar || refills == maxRefills {
			break
		}
		if !w.fill() {
			if s.why == declineEmpty && w.rerr == io.EOF {
				return io.EOF
			}
			break
		}
	}
	t := tail{w: w}
	dec := json.NewDecoder(&t)
	if err := slow(dec); err != nil {
		return err
	}
	w.pos += int(dec.InputOffset())
	return nil
}
