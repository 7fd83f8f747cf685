package engine_test

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/phonestack"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
)

// TestIPv6EndToEnd relays an IPv6 app connection: v6 packets through
// the tunnel, the /proc/net/tcp6 mapping path, and a v6 external
// connection. MopEye parses tcp6 alongside tcp for exactly this (§2.2).
func TestIPv6EndToEnd(t *testing.T) {
	phoneV6 := netip.MustParseAddr("fd00::2")
	wanV6 := netip.MustParseAddr("2001:db8::5")
	serverV6 := netip.MustParseAddrPort("[2606:2800:220:1::1]:443")

	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{Delay: 3 * time.Millisecond}, 1)
	defer net.Close()
	net.HandleTCP(serverV6, netsim.EchoHandler())

	dev := tun.New(clk, 4096)
	defer dev.Close()
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	pm.Install(10066, "com.example.v6app")
	phone := phonestack.New(clk, dev, phoneV6, table, 2)
	defer phone.Close()
	prov := sockets.NewProvider(net, clk, wanV6, sockets.CostModel{}, 3)
	reader := procnet.NewReader(table, clk, procnet.ZeroParseCost(), 4)
	eng := engine.New(engine.Default(), engine.Deps{
		Clock: clk, Device: dev, Sockets: prov, ProcNet: reader, Packages: pm,
	})
	eng.Start()
	defer eng.Stop()

	conn, err := phone.Connect(10066, serverV6, 5*time.Second)
	if err != nil {
		t.Fatalf("v6 connect: %v", err)
	}
	defer conn.Close()
	msg := []byte("ipv6 through the relay")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echo: %q", buf)
	}

	deadline := time.Now().Add(3 * time.Second)
	for eng.Store().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := eng.Store().Kind(measure.KindTCP)
	if len(recs) != 1 {
		t.Fatalf("records: %d", len(recs))
	}
	if recs[0].App != "com.example.v6app" {
		t.Errorf("v6 mapping failed: app %q (tcp6 parse path, §2.2)", recs[0].App)
	}
	if recs[0].Dst != serverV6 {
		t.Errorf("dst: %v", recs[0].Dst)
	}
}
