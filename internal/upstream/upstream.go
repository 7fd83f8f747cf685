// Package upstream abstracts where relayed flows exit. The relay's
// socket layer (package sockets) historically dialed straight into the
// emulated netsim network; this package turns that call point into a
// Dialer seam with three implementations, psiphon-style:
//
//   - Netsim: today's semantics — dial inside the emulated network
//     (the default test substrate).
//   - Direct: a real net.Dialer for the live data plane (-tun real).
//   - SOCKS5: CONNECT relayed TCP flows through a SOCKS5 proxy, with
//     optional username/password auth, a dial timeout, and typed
//     terminal-vs-retryable errors.
//
// SOCKS5 composes over a Forward dialer, so the same client code
// relays through an in-process test proxy over netsim (no root, no
// network) and through a real proxy over the wire.
package upstream

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"net/url"
	"strings"
	"time"
)

// Sentinel errors a Conn's TryRead reports. Implementations map their
// substrate's equivalents onto these so the socket layer dispatches on
// one set.
var (
	// ErrWouldBlock reports an empty receive buffer on a non-blocking
	// read (EAGAIN).
	ErrWouldBlock = errors.New("upstream: read would block")
	// ErrEOF reports orderly stream end.
	ErrEOF = errors.New("upstream: EOF")
)

// Conn is the external-socket surface the relay needs: non-blocking
// reads with readiness callbacks (the selector's event source), writes
// that may block briefly on flow control, and the half-close/abort
// controls §2.3's FIN/RST relaying requires.
type Conn interface {
	// TryRead performs a non-blocking read: ErrWouldBlock when no data
	// is available, ErrEOF on orderly stream end.
	TryRead(buf []byte) (int, error)
	// Write sends bytes; it may block briefly on flow control.
	Write(b []byte) (int, error)
	// CloseWrite half-closes the sending direction (relaying app FIN).
	CloseWrite() error
	// Close releases the connection.
	Close() error
	// Reset aborts the connection (relaying app RST).
	Reset() error
	// SetOnReadable installs the readiness callback, replacing any
	// previous one; nil uninstalls. If the connection is already
	// readable the callback fires immediately.
	SetOnReadable(fn func())
}

// Dialer turns a destination into an established external connection.
// local is the relay channel's bound address: substrate dialers that
// have a real address space (netsim) bind it; kernel-socket dialers let
// the OS pick and ignore it.
type Dialer interface {
	Dial(local, dst netip.AddrPort) (Conn, error)
}

// Error is a typed upstream dial failure. Terminal errors are
// configuration or policy failures (bad credentials, proxy refuses the
// command) that retrying the same dial cannot fix; non-terminal errors
// (timeouts, unreachable hosts) are transient and retryable.
type Error struct {
	// Op names the failing phase: "dial", "greeting", "auth",
	// "connect".
	Op string
	// ReplyCode is the SOCKS5 reply code when the proxy refused the
	// CONNECT (zero otherwise).
	ReplyCode byte
	// IsTerminal marks failures retrying cannot fix.
	IsTerminal bool
	Err        error
}

// Error implements error.
func (e *Error) Error() string {
	kind := "retryable"
	if e.IsTerminal {
		kind = "terminal"
	}
	return fmt.Sprintf("upstream %s (%s): %v", e.Op, kind, e.Err)
}

// Unwrap exposes the cause.
func (e *Error) Unwrap() error { return e.Err }

// ErrTimeout is the cause inside an *Error when the dial or handshake
// exceeded its deadline.
var ErrTimeout = errors.New("upstream: dial timeout")

// Spec is a parsed -upstream flag value.
type Spec struct {
	// Scheme is "direct" or "socks5".
	Scheme string
	// Addr is the proxy host:port (socks5 only).
	Addr string
	// Username and Password carry socks5 credentials when present.
	Username, Password string
}

// ParseSpec validates an -upstream flag value: "direct" (the default)
// or "socks5://[user:pass@]host:port".
func ParseSpec(s string) (Spec, error) {
	if s == "" || s == "direct" {
		return Spec{Scheme: "direct"}, nil
	}
	if !strings.Contains(s, "://") {
		return Spec{}, fmt.Errorf("upstream: bad spec %q (want direct or socks5://[user:pass@]host:port)", s)
	}
	u, err := url.Parse(s)
	if err != nil {
		return Spec{}, fmt.Errorf("upstream: bad spec %q: %v", s, err)
	}
	if u.Scheme != "socks5" {
		return Spec{}, fmt.Errorf("upstream: unsupported scheme %q (want direct or socks5)", u.Scheme)
	}
	if u.Host == "" || u.Port() == "" {
		return Spec{}, fmt.Errorf("upstream: socks5 spec %q needs host:port", s)
	}
	if u.Path != "" && u.Path != "/" {
		return Spec{}, fmt.Errorf("upstream: socks5 spec %q must not carry a path", s)
	}
	sp := Spec{Scheme: "socks5", Addr: u.Host}
	if u.User != nil {
		sp.Username = u.User.Username()
		sp.Password, _ = u.User.Password()
	}
	return sp, nil
}

// Dialer builds the kernel-socket dialer a parsed spec describes:
// Direct for "direct", a SOCKS5 client over Direct otherwise. A
// socks5 proxy given as a hostname is resolved here, once, at
// wiring time — per-flow resolution would add a DNS lookup to every
// measured connect.
func (s Spec) Dialer(timeout time.Duration) (Dialer, error) {
	if s.Scheme != "socks5" {
		return Direct{Timeout: timeout}, nil
	}
	proxy, err := resolveAddrPort(s.Addr)
	if err != nil {
		return nil, fmt.Errorf("upstream: resolving proxy %q: %w", s.Addr, err)
	}
	return &SOCKS5{
		Proxy:    proxy,
		Username: s.Username,
		Password: s.Password,
		Timeout:  timeout,
		Forward:  Direct{Timeout: timeout},
	}, nil
}

// resolveAddrPort turns "host:port" into a netip.AddrPort, resolving
// hostnames through the system resolver.
func resolveAddrPort(hostport string) (netip.AddrPort, error) {
	if ap, err := netip.ParseAddrPort(hostport); err == nil {
		return ap, nil
	}
	ta, err := net.ResolveTCPAddr("tcp", hostport)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return ta.AddrPort(), nil
}
