//go:build linux && realtun

package lintun

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/tun"
)

// Supported reports whether this build carries the real backend.
const Supported = true

const ifnamsiz = 16

// ifreqFlags is struct ifreq with the union read as the 16-bit flags
// word (TUNSETIFF). The padding brings it to sizeof(struct ifreq)==40.
type ifreqFlags struct {
	name  [ifnamsiz]byte
	flags uint16
	_     [22]byte
}

// ifreqMTU is struct ifreq with the union read as the int MTU
// (SIOCGIFMTU).
type ifreqMTU struct {
	name [ifnamsiz]byte
	mtu  int32
	_    [20]byte
}

// TUN adapts a real /dev/net/tun descriptor to tun.Interface.
//
// The fd is opened non-blocking and wrapped in an *os.File, which
// registers it with the Go runtime poller: "blocking" reads park the
// goroutine in the netpoller (no thread burned), and SetReadDeadline
// gives us the shutdown wakeup the emulated device implements by
// injecting a dummy packet (§3.1's self-sent packet trick).
type TUN struct {
	f    *os.File
	rc   syscall.RawConn
	name string
	mtu  int

	blocking atomic.Bool
	closing  atomic.Bool
	nb       rawRead

	packetsOut atomic.Int64
	packetsIn  atomic.Int64
}

var _ tun.Interface = (*TUN)(nil)

// Open attaches to the named TUN interface, creating it if the kernel
// allows (persistent devices made with `ip tuntap add` are attached
// as-is). An empty name lets the kernel pick (tun%d). The descriptor is
// IFF_TUN|IFF_NO_PI: reads and writes are raw IP packets. The device
// MTU is queried from the interface; if the query fails (interface not
// yet up) it falls back to tun.DefaultMTU.
func Open(name string) (*TUN, error) {
	if len(name) >= ifnamsiz {
		return nil, fmt.Errorf("lintun: interface name %q too long", name)
	}
	fd, err := syscall.Open("/dev/net/tun", syscall.O_RDWR|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("lintun: open /dev/net/tun: %w", err)
	}
	var req ifreqFlags
	copy(req.name[:], name)
	req.flags = syscall.IFF_TUN | syscall.IFF_NO_PI
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd),
		uintptr(syscall.TUNSETIFF), uintptr(unsafe.Pointer(&req))); errno != 0 {
		syscall.Close(fd)
		return nil, fmt.Errorf("lintun: TUNSETIFF %q: %w", name, errno)
	}
	got := cString(req.name[:])

	// os.NewFile on a non-blocking fd registers it with the runtime
	// poller, enabling parked reads and deadline-based wakeups.
	f := os.NewFile(uintptr(fd), "/dev/net/tun:"+got)
	mtu, err := interfaceMTU(got)
	if err != nil || mtu <= 0 {
		mtu = tun.DefaultMTU
	}
	t, err := newTUN(f, got, mtu)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lintun: raw conn: %w", err)
	}
	return t, nil
}

// newTUN adapts an open, poller-registered descriptor.
func newTUN(f *os.File, name string, mtu int) (*TUN, error) {
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	t := &TUN{f: f, rc: rc, name: name, mtu: mtu}
	t.nb.fn = t.nb.read
	return t, nil
}

// interfaceMTU queries the interface MTU via SIOCGIFMTU.
func interfaceMTU(name string) (int, error) {
	s, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return 0, err
	}
	defer syscall.Close(s)
	var req ifreqMTU
	copy(req.name[:], name)
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(s),
		uintptr(syscall.SIOCGIFMTU), uintptr(unsafe.Pointer(&req))); errno != 0 {
		return 0, errno
	}
	return int(req.mtu), nil
}

func cString(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// Name reports the attached interface name (kernel-assigned when Open
// was called with an empty name).
func (t *TUN) Name() string { return t.name }

// MTU reports the interface MTU captured at Open.
func (t *TUN) MTU() int { return t.mtu }

// SetBlocking switches the read mode, exactly the fcntl(F_SETFL) /
// IoUtils.setBlocking choice §3.1 measures. Blocking reads park in the
// netpoller; non-blocking reads return tun.ErrWouldBlock on an empty
// device so the engine's poll schedules apply.
func (t *TUN) SetBlocking(b bool) { t.blocking.Store(b) }

// Read retrieves the next outbound IP packet into a buffer from the
// tun package's pool (tun.Buffer). A read that fails, including every
// empty non-blocking poll, puts the buffer straight back; a packet's
// buffer is the caller's until it passes it to Release.
func (t *TUN) Read() ([]byte, error) {
	buf := tun.Buffer(t.mtu)
	var n int
	var err error
	if t.blocking.Load() {
		n, err = t.f.Read(buf)
		if err != nil {
			err = t.readErr(err)
		}
	} else {
		n, err = t.readNonblock(buf)
	}
	if err == nil && n <= 0 {
		err = tun.ErrClosed
	}
	if err != nil {
		tun.ReleaseBuffer(buf)
		return nil, err
	}
	t.packetsOut.Add(1)
	return buf[:n], nil
}

// Release returns a buffer Read handed out to the pool (see
// tun.Interface).
func (t *TUN) Release(buf []byte) { tun.ReleaseBuffer(buf) }

// rawRead is the state of one raw non-blocking read. RawConn.Read takes
// a callback, and a closure built per call would escape with its
// captures, three allocations per poll; fn is bound once, in newTUN,
// and mu keeps concurrent readers from sharing the state.
type rawRead struct {
	mu  sync.Mutex
	buf []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

func (r *rawRead) read(fd uintptr) bool {
	r.n, r.err = syscall.Read(int(fd), r.buf)
	return true // never wait for readiness; EAGAIN surfaces below
}

// readNonblock issues one raw non-blocking read, mapping EAGAIN to
// tun.ErrWouldBlock instead of parking in the poller.
func (t *TUN) readNonblock(buf []byte) (int, error) {
	t.nb.mu.Lock()
	t.nb.buf = buf
	cerr := t.rc.Read(t.nb.fn)
	n, rerr := t.nb.n, t.nb.err
	t.nb.buf = nil
	t.nb.mu.Unlock()
	if cerr != nil {
		return 0, t.readErr(cerr)
	}
	if rerr != nil {
		if rerr == syscall.EAGAIN {
			return 0, tun.ErrWouldBlock
		}
		return 0, t.readErr(rerr)
	}
	return n, nil
}

// Write sends one IP packet to the device. The poller handles a full
// qdisc (EAGAIN) by parking until writable, which is the single-tunnel
// serialisation §3.5.1 describes.
func (t *TUN) Write(pkt []byte) error {
	if len(pkt) > t.mtu {
		return tun.ErrTooBig
	}
	if _, err := t.f.Write(pkt); err != nil {
		return t.writeErr(err)
	}
	t.packetsIn.Add(1)
	return nil
}

// InjectOutbound is the engine's shutdown wakeup (the emulated device
// receives a dummy packet; §3.1's self-sent packet). A real descriptor
// has no user-space injection path, so it is implemented as a reader
// wakeup: an already-expired read deadline unparks any blocked Read,
// which then reports ErrClosed.
func (t *TUN) InjectOutbound([]byte) error {
	t.closing.Store(true)
	return t.f.SetReadDeadline(time.Unix(1, 0))
}

// Close tears the device down. Blocked readers and writers unblock
// with tun.ErrClosed.
func (t *TUN) Close() {
	t.closing.Store(true)
	_ = t.f.Close()
}

// Stats mirrors the emulated device's counters so the real ceiling
// benchmark and the e2e smoke read the same shape. Queueing-delay
// fields stay zero: the kernel does not timestamp TUN enqueue.
func (t *TUN) Stats() tun.Stats {
	return tun.Stats{
		PacketsOut: int(t.packetsOut.Load()),
		PacketsIn:  int(t.packetsIn.Load()),
	}
}

// readErr maps errors surfaced by the file/poller to the tun sentinel
// set the engine's reader loops dispatch on.
func (t *TUN) readErr(err error) error {
	if t.closing.Load() ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, os.ErrClosed) {
		return tun.ErrClosed
	}
	return err
}

func (t *TUN) writeErr(err error) error {
	if t.closing.Load() || errors.Is(err, os.ErrClosed) {
		return tun.ErrClosed
	}
	return err
}
