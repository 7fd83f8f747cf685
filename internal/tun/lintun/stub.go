//go:build !(linux && realtun)

package lintun

import "repro/internal/tun"

// Supported reports whether this build carries the real backend.
const Supported = false

// TUN is the stub standing in for the real backend so untagged wiring
// compiles. Open never returns one; the methods exist only to satisfy
// tun.Interface.
type TUN struct{}

var _ tun.Interface = (*TUN)(nil)

// Open always fails: the real backend needs `-tags realtun` on linux.
func Open(string) (*TUN, error) { return nil, ErrUnsupported }

func (*TUN) Name() string                { return "" }
func (*TUN) MTU() int                    { return tun.DefaultMTU }
func (*TUN) SetBlocking(bool)            {}
func (*TUN) Read() ([]byte, error)       { return nil, ErrUnsupported }
func (*TUN) Write([]byte) error          { return ErrUnsupported }
func (*TUN) InjectOutbound([]byte) error { return ErrUnsupported }
func (*TUN) Close()                      {}
func (*TUN) Stats() tun.Stats            { return tun.Stats{} }
