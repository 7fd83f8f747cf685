//go:build linux && realtun && !race

// The race detector makes sync.Pool drop items at random, so these
// allocation pins build only without it.

package lintun

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/tun"
)

// pipeTUN wraps the read end of an os.Pipe in a TUN, so Read runs its
// real code path, poller and raw non-blocking read included, with no
// root and no /dev/net/tun. A pipe is a byte stream, so each write must
// be read back before the next one.
func pipeTUN(t *testing.T) (*TUN, *os.File) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(); w.Close() })
	dev, err := newTUN(r, "pipe", tun.DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	return dev, w
}

// TestReadAllocatesNothing: after warm-up, an empty non-blocking poll
// and a read-and-release of one packet, in either read mode, allocate
// nothing — the buffer comes from the pool and goes back to it.
func TestReadAllocatesNothing(t *testing.T) {
	dev, w := pipeTUN(t)

	dev.SetBlocking(false)
	poll := func() {
		if _, err := dev.Read(); !errors.Is(err, tun.ErrWouldBlock) {
			t.Fatalf("empty poll: %v, want ErrWouldBlock", err)
		}
	}
	poll()
	if allocs := testing.AllocsPerRun(1000, poll); allocs != 0 {
		t.Errorf("empty poll: %v allocs, want 0", allocs)
	}

	pkt := bytes.Repeat([]byte{0x45}, 1400)
	for _, blocking := range []bool{false, true} {
		dev.SetBlocking(blocking)
		relay := func() {
			if _, err := w.Write(pkt); err != nil {
				t.Fatal(err)
			}
			got, err := dev.Read()
			if err != nil || len(got) != len(pkt) {
				t.Fatalf("read %d bytes, %v; want %d", len(got), err, len(pkt))
			}
			dev.Release(got)
		}
		relay()
		if allocs := testing.AllocsPerRun(1000, relay); allocs != 0 {
			t.Errorf("blocking=%v: %v allocs per packet, want 0", blocking, allocs)
		}
	}
	if st := dev.Stats(); st.PacketsOut != 2*1001+2 {
		t.Errorf("stats %+v", st)
	}
}
