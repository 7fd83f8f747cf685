// Package lintun is the real-device TUN backend: it opens a Linux
// /dev/net/tun descriptor (IFF_TUN|IFF_NO_PI) and adapts it to
// tun.Interface, so the relay engine's reader/writer loops and batching
// run unchanged against live traffic.
//
// The backend compiles only with `-tags realtun` on linux; every other
// build gets a stub whose Open returns ErrUnsupported, which keeps the
// untagged wiring in cmd/mopeye compiling without the tag. netsim + the
// emulated tun.Device remain the default test substrate (deterministic,
// unprivileged); this package is the production exit.
package lintun

import "errors"

// ErrUnsupported is returned by Open when the build does not carry the
// real backend (missing the realtun tag, or not linux).
var ErrUnsupported = errors.New("lintun: real TUN backend not compiled in (build with -tags realtun on linux)")
