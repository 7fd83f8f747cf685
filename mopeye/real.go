package mopeye

import (
	"fmt"
	"net/netip"
	"os/user"
	"strconv"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
	"repro/internal/tun/lintun"
	"repro/internal/upstream"
)

// RealOptions configures a phone on the real Linux data plane: the
// engine reads packets from a kernel TUN device instead of the
// emulated one, relays TCP flows out through kernel sockets (directly
// or via a SOCKS5 proxy), relays UDP through per-datagram kernel
// sockets, and attributes flows by parsing the live /proc/net tables.
//
// Requires a build with `-tags realtun` on linux and a process
// privileged enough to open /dev/net/tun (CAP_NET_ADMIN). Bringing the
// interface up, addressing it, and routing traffic into it is the
// operator's job — see the README quickstart.
type RealOptions struct {
	// TunName is the TUN device name to create or attach (e.g.
	// "mopeye0"); empty lets the kernel assign one.
	TunName string
	// Upstream selects where relayed TCP flows exit: "" or "direct"
	// for plain kernel sockets, "socks5://[user:pass@]host:port" to
	// relay through a SOCKS5 proxy.
	Upstream string
	// Engine overrides the engine configuration; nil means the paper's
	// shipped configuration.
	Engine *engine.Config
	// Workers mirrors Options: the packet-processing worker count.
	Workers int
}

// RealPhone is MopEye attached to a real TUN device. The measurement
// pipeline is the same one the simulated Phone drives — same engine,
// same store, same export formats — only the substrate differs.
type RealPhone struct {
	core
	dev *lintun.TUN
	pm  *procnet.PackageManager
}

// NewReal opens the TUN device and starts the engine against the real
// data plane. Fails with lintun.ErrUnsupported on builds without
// `-tags realtun`.
func NewReal(o RealOptions) (*RealPhone, error) {
	spec, err := upstream.ParseSpec(o.Upstream)
	if err != nil {
		return nil, err
	}
	// A zero timeout is upstream's default: 10 s per connect.
	dialer, err := spec.Dialer(0)
	if err != nil {
		return nil, err
	}

	dev, err := lintun.Open(o.TunName)
	if err != nil {
		return nil, err
	}

	clk := clock.NewReal()
	reader := procnet.NewReaderFrom(procnet.ProcFS{}, clk, procnet.ZeroParseCost(), 1)
	pm := procnet.NewPackageManager()
	pm.SetFallback(userName)

	// No emulated network behind the provider: every flow exits through
	// the upstream dialer (TCP) and the kernel UDP transport.
	prov := sockets.NewProvider(nil, clk, netip.IPv4Unspecified(), sockets.CostModel{}, 1)
	prov.SetDialer(dialer)
	prov.SetUDPTransport(upstream.KernelUDP())

	eng := engine.New(engineConfig(o.Engine, o.Workers), engine.Deps{
		Clock:    clk,
		Device:   dev,
		Sockets:  prov,
		ProcNet:  reader,
		Packages: pm,
	})
	eng.Start()
	p := &RealPhone{dev: dev, pm: pm}
	p.init(eng, clk, dev.Close)
	return p, nil
}

// userName maps a host UID to its account name, the closest Linux
// analogue of Android's per-app UIDs; unresolvable UIDs render as
// "uid:N" so records stay attributable.
func userName(uid int) (string, bool) {
	if u, err := user.LookupId(strconv.Itoa(uid)); err == nil && u.Username != "" {
		return u.Username, true
	}
	return fmt.Sprintf("uid:%d", uid), true
}

// Device returns the kernel interface name (e.g. "tun0"), for the
// operator's `ip` commands.
func (p *RealPhone) Device() string { return p.dev.Name() }

// MTU returns the interface MTU the engine honors.
func (p *RealPhone) MTU() int { return p.dev.MTU() }

// InstallApp labels a host UID, overriding the account-name fallback —
// handy for pinning test traffic to a recognizable name.
func (p *RealPhone) InstallApp(uid int, name string) { p.pm.Install(uid, name) }

// TunStats exposes the device's packet counters.
func (p *RealPhone) TunStats() tun.Stats { return p.dev.Stats() }
