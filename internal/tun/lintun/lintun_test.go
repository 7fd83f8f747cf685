//go:build linux && realtun

package lintun

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/tun"
)

// requireTUN skips unless the test can actually open a TUN device
// (root or CAP_NET_ADMIN, and /dev/net/tun present).
func requireTUN(t *testing.T) {
	t.Helper()
	if os.Geteuid() != 0 {
		t.Skip("lintun tests need root/CAP_NET_ADMIN")
	}
	if _, err := os.Stat("/dev/net/tun"); err != nil {
		t.Skipf("/dev/net/tun unavailable: %v", err)
	}
}

func TestOpenReadWrite(t *testing.T) {
	requireTUN(t)
	dev, err := Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer dev.Close()
	if dev.Name() == "" {
		t.Fatal("kernel did not assign a name")
	}
	if dev.MTU() <= 0 {
		t.Fatalf("MTU = %d", dev.MTU())
	}

	// Non-blocking read while the link is still down (nothing can have
	// arrived yet): EAGAIN → ErrWouldBlock.
	dev.SetBlocking(false)
	if _, err := dev.Read(); !errors.Is(err, tun.ErrWouldBlock) {
		t.Fatalf("idle non-blocking read: %v, want ErrWouldBlock", err)
	}

	// Bring the interface up with an address so the kernel routes into
	// it; then an ICMP ping generates real outbound packets to read.
	run := func(args ...string) {
		t.Helper()
		if out, err := exec.Command("ip", args...).CombinedOutput(); err != nil {
			t.Fatalf("ip %v: %v\n%s", args, err, out)
		}
	}
	run("addr", "add", "198.51.100.1/24", "dev", dev.Name())
	run("link", "set", dev.Name(), "up")

	// Blocking read parked in the poller, then the kernel sends to a
	// routed address and the read returns a raw IP packet. The link-up
	// itself emits IPv6 noise (router solicitations), so drain until an
	// IPv4 packet shows up.
	dev.SetBlocking(true)
	got := make(chan []byte, 1)
	rerrc := make(chan error, 1)
	go func() {
		for {
			pkt, err := dev.Read()
			if err != nil {
				rerrc <- err
				return
			}
			if len(pkt) > 0 && pkt[0]>>4 == 4 {
				got <- pkt
				return
			}
		}
	}()
	// A UDP datagram to a routed address lands in the TUN as a raw
	// IPv4 packet (no replier needed).
	uc, err := net.Dial("udp", "198.51.100.9:33434")
	if err != nil {
		t.Fatalf("udp dial via tun route: %v", err)
	}
	defer uc.Close()
	if _, err := uc.Write([]byte("probe")); err != nil {
		t.Fatalf("udp send: %v", err)
	}
	select {
	case pkt := <-got:
		if len(pkt) < 28 || pkt[9] != 17 { // IPv4 proto field: UDP
			t.Fatalf("unexpected packet: % x", pkt[:minInt(28, len(pkt))])
		}
	case err := <-rerrc:
		t.Fatalf("reader goroutine error: %v", err)
	case <-time.After(3 * time.Second):
		t.Fatal("blocked read never saw the routed packet")
	}

	// InjectOutbound must unpark a blocked reader with ErrClosed — the
	// engine's shutdown path.
	unblocked := make(chan error, 1)
	go func() {
		_, err := dev.Read()
		unblocked <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := dev.InjectOutbound([]byte{0}); err != nil {
		t.Fatalf("InjectOutbound: %v", err)
	}
	select {
	case err := <-unblocked:
		if !errors.Is(err, tun.ErrClosed) {
			t.Fatalf("wakeup read: %v, want ErrClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("InjectOutbound did not unblock the reader")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
