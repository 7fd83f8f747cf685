package upstream

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
)

// ServerConfig configures the in-process SOCKS5 server. The zero value
// accepts anonymous clients and needs only Dial. The fault-injection
// knobs exist for the upstream error-path tests: credential rejection,
// CONNECT refusal, and a proxy that accepts the greeting then goes
// silent (the dial-timeout case).
type ServerConfig struct {
	// Username/Password require RFC 1929 auth when non-empty.
	Username, Password string
	// RejectConnect, when nonzero, refuses every CONNECT with this
	// SOCKS5 reply code.
	RejectConnect byte
	// HangAfterGreeting accepts the method negotiation and then never
	// answers the CONNECT, so clients exercise their dial timeout.
	HangAfterGreeting bool
	// Dial opens the backend connection for an accepted CONNECT. It is
	// substrate-agnostic: netsim.Network.Dial in the testbed, net.Dial
	// on a real host. Required unless every CONNECT is refused.
	Dial func(dst netip.AddrPort) (io.ReadWriteCloser, error)
}

// ServeConn speaks the SOCKS5 server side over one accepted stream and,
// on a successful CONNECT, relays bytes both ways until either side
// closes. It works over anything with blocking Read/Write — a
// *netsim.Conn inside the testbed or a net.Conn from a real listener —
// which is what lets one proxy implementation cover both the
// unprivileged e2e tests and the root-gated real-TUN smoke.
func ServeConn(rw io.ReadWriteCloser, cfg ServerConfig) error {
	defer rw.Close()

	// Method negotiation.
	var hdr [2]byte
	if _, err := io.ReadFull(rw, hdr[:]); err != nil {
		return fmt.Errorf("socks5 server: greeting: %w", err)
	}
	if hdr[0] != socksVersion {
		return fmt.Errorf("socks5 server: bad version %#x", hdr[0])
	}
	methods := make([]byte, hdr[1])
	if _, err := io.ReadFull(rw, methods); err != nil {
		return fmt.Errorf("socks5 server: methods: %w", err)
	}
	want := byte(methodNoAuth)
	if cfg.Username != "" {
		want = methodUserPass
	}
	offered := false
	for _, m := range methods {
		if m == want {
			offered = true
		}
	}
	if !offered {
		_, _ = rw.Write([]byte{socksVersion, methodNoneOK})
		return errors.New("socks5 server: no acceptable method")
	}
	if _, err := rw.Write([]byte{socksVersion, want}); err != nil {
		return err
	}

	if cfg.HangAfterGreeting {
		// Swallow everything until the peer gives up; never reply.
		_, _ = io.Copy(io.Discard, rw)
		return nil
	}

	if want == methodUserPass {
		ok, err := serveAuth(rw, cfg)
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("socks5 server: auth rejected")
		}
	}

	// CONNECT request.
	var req [4]byte
	if _, err := io.ReadFull(rw, req[:]); err != nil {
		return fmt.Errorf("socks5 server: request: %w", err)
	}
	if req[0] != socksVersion {
		return fmt.Errorf("socks5 server: bad request version %#x", req[0])
	}
	dst, err := readDstAddr(rw, req[3])
	if err != nil {
		return err
	}
	if req[1] != cmdConnect {
		_ = writeReply(rw, replyCmdUnsupp)
		return fmt.Errorf("socks5 server: unsupported command %#x", req[1])
	}
	if cfg.RejectConnect != 0 {
		_ = writeReply(rw, cfg.RejectConnect)
		return fmt.Errorf("socks5 server: connect refused by config (%s)", replyString(cfg.RejectConnect))
	}
	if cfg.Dial == nil {
		_ = writeReply(rw, 0x01)
		return errors.New("socks5 server: no backend dialer")
	}
	backend, err := cfg.Dial(dst)
	if err != nil {
		_ = writeReply(rw, replyConnRefused)
		return fmt.Errorf("socks5 server: backend dial %v: %w", dst, err)
	}
	if err := writeReply(rw, replySucceeded); err != nil {
		backend.Close()
		return err
	}
	relay(rw, backend)
	return nil
}

// serveAuth runs the RFC 1929 exchange; false means rejected.
func serveAuth(rw io.ReadWriteCloser, cfg ServerConfig) (bool, error) {
	var ver [2]byte
	if _, err := io.ReadFull(rw, ver[:]); err != nil {
		return false, err
	}
	user := make([]byte, ver[1])
	if _, err := io.ReadFull(rw, user); err != nil {
		return false, err
	}
	var plen [1]byte
	if _, err := io.ReadFull(rw, plen[:]); err != nil {
		return false, err
	}
	pass := make([]byte, plen[0])
	if _, err := io.ReadFull(rw, pass); err != nil {
		return false, err
	}
	if ver[0] != authVersion || string(user) != cfg.Username || string(pass) != cfg.Password {
		_, _ = rw.Write([]byte{authVersion, 0x01})
		return false, nil
	}
	_, err := rw.Write([]byte{authVersion, 0x00})
	return true, err
}

// readDstAddr parses the CONNECT destination.
func readDstAddr(r io.Reader, atyp byte) (netip.AddrPort, error) {
	var raw []byte
	switch atyp {
	case atypIPv4:
		raw = make([]byte, 4+2)
	case atypIPv6:
		raw = make([]byte, 16+2)
	default:
		return netip.AddrPort{}, fmt.Errorf("socks5 server: unsupported atyp %#x", atyp)
	}
	if _, err := io.ReadFull(r, raw); err != nil {
		return netip.AddrPort{}, err
	}
	addr, ok := netip.AddrFromSlice(raw[:len(raw)-2])
	if !ok {
		return netip.AddrPort{}, errors.New("socks5 server: bad address")
	}
	port := uint16(raw[len(raw)-2])<<8 | uint16(raw[len(raw)-1])
	return netip.AddrPortFrom(addr, port), nil
}

// writeReply sends a minimal reply with a zero IPv4 bound address.
func writeReply(w io.Writer, code byte) error {
	_, err := w.Write([]byte{socksVersion, code, 0x00, atypIPv4, 0, 0, 0, 0, 0, 0})
	return err
}

// relay copies both directions, propagating half-closes so FIN
// semantics survive the proxy hop (the byte-identical direct-vs-SOCKS
// e2e depends on the app seeing the same stream endings either way).
func relay(a, b io.ReadWriteCloser) {
	done := make(chan struct{}, 2)
	cp := func(dst, src io.ReadWriteCloser) {
		_, _ = io.Copy(dst, src)
		type closeWriter interface{ CloseWrite() error }
		if cw, ok := dst.(closeWriter); ok {
			_ = cw.CloseWrite()
		} else {
			_ = dst.Close()
		}
		done <- struct{}{}
	}
	go cp(b, a)
	cp(a, b)
	<-done
	<-done
	_ = a.Close()
	_ = b.Close()
}
