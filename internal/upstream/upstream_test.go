package upstream

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    Spec
		wantErr string
	}{
		{in: "", want: Spec{Scheme: "direct"}},
		{in: "direct", want: Spec{Scheme: "direct"}},
		{in: "socks5://127.0.0.1:1080", want: Spec{Scheme: "socks5", Addr: "127.0.0.1:1080"}},
		{in: "socks5://u:p@proxy.example:1080", want: Spec{Scheme: "socks5", Addr: "proxy.example:1080", Username: "u", Password: "p"}},
		{in: "socks5://127.0.0.1", wantErr: "host:port"},
		{in: "socks5://127.0.0.1:1080/path", wantErr: "path"},
		{in: "http://127.0.0.1:1080", wantErr: "unsupported scheme"},
		{in: "socks5:127.0.0.1:1080", wantErr: "bad spec"},
		{in: "bogus", wantErr: "bad spec"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSpec(%q) err = %v, want containing %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// echoListener runs a TCP echo server and returns its address.
func echoListener(t *testing.T) netip.AddrPort {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	return netip.MustParseAddrPort(l.Addr().String())
}

// socksListener serves the in-process SOCKS5 server on loopback with a
// real-socket backend dialer and returns its address.
func socksListener(t *testing.T, cfg ServerConfig) netip.AddrPort {
	t.Helper()
	if cfg.Dial == nil {
		cfg.Dial = func(dst netip.AddrPort) (io.ReadWriteCloser, error) {
			return net.Dial("tcp", dst.String())
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _ = ServeConn(c, cfg) }()
		}
	}()
	return netip.MustParseAddrPort(l.Addr().String())
}

// readAll drains n bytes from a Conn, waiting on readiness.
func readN(t *testing.T, c Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < n {
		m, err := c.TryRead(buf[got:])
		got += m
		if errors.Is(err, ErrWouldBlock) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out after %d/%d bytes", got, n)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("TryRead after %d bytes: %v", got, err)
		}
	}
	return buf
}

func TestDirectDialEcho(t *testing.T) {
	dst := echoListener(t)
	c, err := Direct{}.Dial(netip.AddrPort{}, dst)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := string(readN(t, c, 4)); got != "ping" {
		t.Fatalf("echo = %q", got)
	}
	// Half-close: the echo server sees EOF, drains, and closes; we must
	// then observe ErrEOF through TryRead.
	if err := c.CloseWrite(); err != nil {
		t.Fatalf("close write: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.TryRead(make([]byte, 16))
		if errors.Is(err, ErrEOF) {
			break
		}
		if !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("TryRead: %v, want eventual ErrEOF", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw EOF after half-close")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDirectDialRefusedIsRetryable(t *testing.T) {
	// A port nothing listens on: grab one, close it, dial it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParseAddrPort(l.Addr().String())
	l.Close()
	_, err = Direct{Timeout: 2 * time.Second}.Dial(netip.AddrPort{}, dst)
	if err == nil {
		t.Fatal("dial succeeded against closed port")
	}
	var ue *Error
	if !errors.As(err, &ue) {
		t.Fatalf("err %T, want *Error", err)
	}
	if terminal(err) {
		t.Fatalf("refused TCP connect classified terminal: %v", err)
	}
}

func TestSOCKS5Echo(t *testing.T) {
	dst := echoListener(t)
	proxy := socksListener(t, ServerConfig{})
	d := &SOCKS5{Proxy: proxy, Forward: Direct{}}
	c, err := d.Dial(netip.AddrPort{}, dst)
	if err != nil {
		t.Fatalf("socks dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("relay me")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := string(readN(t, c, 8)); got != "relay me" {
		t.Fatalf("echo through proxy = %q", got)
	}
}

func TestSOCKS5Auth(t *testing.T) {
	dst := echoListener(t)
	proxy := socksListener(t, ServerConfig{Username: "mopeye", Password: "s3cret"})

	// Correct credentials succeed.
	good := &SOCKS5{Proxy: proxy, Username: "mopeye", Password: "s3cret", Forward: Direct{}}
	c, err := good.Dial(netip.AddrPort{}, dst)
	if err != nil {
		t.Fatalf("authed dial: %v", err)
	}
	c.Close()

	// Wrong password: terminal ErrAuthFailed.
	bad := &SOCKS5{Proxy: proxy, Username: "mopeye", Password: "wrong", Forward: Direct{}}
	_, err = bad.Dial(netip.AddrPort{}, dst)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("bad password err = %v, want ErrAuthFailed", err)
	}
	if !terminal(err) {
		t.Fatalf("auth failure must be terminal: %v", err)
	}

	// No credentials offered at all: the server rejects the method set.
	anon := &SOCKS5{Proxy: proxy, Forward: Direct{}}
	_, err = anon.Dial(netip.AddrPort{}, dst)
	if !errors.Is(err, ErrAuthFailed) || !terminal(err) {
		t.Fatalf("anon against auth proxy err = %v, want terminal ErrAuthFailed", err)
	}
}

func TestSOCKS5RefusedConnect(t *testing.T) {
	dst := echoListener(t)
	// Retryable refusal (connection refused).
	proxy := socksListener(t, ServerConfig{RejectConnect: replyConnRefused})
	_, err := (&SOCKS5{Proxy: proxy, Forward: Direct{}}).Dial(netip.AddrPort{}, dst)
	var ue *Error
	if !errors.As(err, &ue) || ue.ReplyCode != replyConnRefused {
		t.Fatalf("err = %v, want *Error with reply 0x05", err)
	}
	if terminal(err) {
		t.Fatalf("connection-refused reply must be retryable: %v", err)
	}

	// Terminal refusal (ruleset).
	proxy2 := socksListener(t, ServerConfig{RejectConnect: replyNotAllowed})
	_, err = (&SOCKS5{Proxy: proxy2, Forward: Direct{}}).Dial(netip.AddrPort{}, dst)
	if !terminal(err) {
		t.Fatalf("ruleset refusal must be terminal: %v", err)
	}
}

func TestSOCKS5HangTimesOut(t *testing.T) {
	dst := echoListener(t)
	proxy := socksListener(t, ServerConfig{HangAfterGreeting: true})
	d := &SOCKS5{Proxy: proxy, Forward: Direct{}, Timeout: 200 * time.Millisecond}
	start := time.Now()
	_, err := d.Dial(netip.AddrPort{}, dst)
	if err == nil {
		t.Fatal("dial against hung proxy succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout cause", err)
	}
	if terminal(err) {
		t.Fatalf("timeout must be retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~200ms", elapsed)
	}
}

func TestSOCKS5ForwardDialFailure(t *testing.T) {
	// Proxy address nothing listens on: the forward dial itself fails,
	// classified retryable.
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	proxy := netip.MustParseAddrPort(l.Addr().String())
	l.Close()
	d := &SOCKS5{Proxy: proxy, Forward: Direct{Timeout: 2 * time.Second}}
	_, err := d.Dial(netip.AddrPort{}, netip.MustParseAddrPort("192.0.2.1:80"))
	if err == nil {
		t.Fatal("dial succeeded with dead proxy")
	}
	if terminal(err) {
		t.Fatalf("dead proxy must be retryable: %v", err)
	}
}

// terminal reports whether err is an *Error that retrying cannot fix.
func terminal(err error) bool {
	var ue *Error
	return errors.As(err, &ue) && ue.IsTerminal
}
