package upstream

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"
)

// replayConn is a Conn whose peer is a byte script: TryRead serves the
// script, then the Conn's EOF. Every other TryRead first reports
// ErrWouldBlock and fires the readiness callback, so a handshake also
// walks its wait-for-readable path. Writes are accepted and discarded.
type replayConn struct {
	in       []byte
	off      int
	stall    bool
	readable func()
}

func (c *replayConn) TryRead(buf []byte) (int, error) {
	if c.stall = !c.stall; c.stall && c.off < len(c.in) {
		if c.readable != nil {
			c.readable()
		}
		return 0, ErrWouldBlock
	}
	if c.off == len(c.in) {
		return 0, ErrEOF
	}
	n := copy(buf, c.in[c.off:])
	c.off += n
	return n, nil
}

func (c *replayConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *replayConn) CloseWrite() error           { return nil }
func (c *replayConn) Close() error                { return nil }
func (c *replayConn) Reset() error                { return nil }
func (c *replayConn) SetOnReadable(fn func()) {
	c.readable = fn
	if fn != nil {
		fn()
	}
}

// socksReplyLen is the oracle for how many bytes of a well-formed
// proxy script the client handshake consumes: method selection, the
// RFC 1929 status when user/pass was selected, and the CONNECT reply
// with its bound address.
func socksReplyLen(in []byte) int {
	n := 2
	if in[1] == methodUserPass {
		n += 2
	}
	atyp := in[n+3]
	n += 4
	switch atyp {
	case atypIPv4:
		n += 4
	case atypIPv6:
		n += 16
	default: // domain: a length octet, then the name
		n += 1 + int(in[n])
	}
	return n + 2
}

// FuzzSOCKS5Handshake runs the client handshake against a proxy that
// answers with arbitrary bytes — the proxy's reply is untrusted
// network input. The handshake must not panic or hang, must fail only
// with an *Error, and on success must leave every byte after the
// reply readable as relay payload.
func FuzzSOCKS5Handshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		c := &replayConn{in: in}
		s := &SOCKS5{Username: "u", Password: "p", Timeout: 5 * time.Second}
		err := s.handshake(c, netip.MustParseAddrPort("203.0.113.9:443"))
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("handshake error %T %v is not an *Error", err, err)
			}
			if errors.Is(err, ErrTimeout) {
				t.Fatalf("handshake waited out its deadline on a peer that never stalls: %v", err)
			}
			return
		}
		want := in[socksReplyLen(in):]
		var rest []byte
		buf := make([]byte, 7)
		for {
			n, err := c.TryRead(buf)
			rest = append(rest, buf[:n]...)
			if errors.Is(err, ErrEOF) {
				break
			}
		}
		if !bytes.Equal(rest, want) {
			t.Fatalf("payload after the reply: %q, want %q", rest, want)
		}
	})
}
