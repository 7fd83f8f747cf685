package engine

import (
	"net/netip"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
)

// TestEveryEngineCounterIsExported: Stats copies only some of the
// engine's counters, so the metrics registry is the one window an
// operator has onto the rest. Every field of counters is set to a value
// of its own by reflection, and each value must come back as a
// mopeye_engine_* counter sample in a gather: an atomic added without a
// metric fails here.
func TestEveryEngineCounterIsExported(t *testing.T) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	defer net.Close()
	dev := tun.New(clk, 8)
	defer dev.Close()
	e := New(Default(), Deps{
		Clock:    clk,
		Device:   dev,
		Sockets:  sockets.NewProvider(net, clk, netip.MustParseAddr("100.64.0.5"), sockets.CostModel{}, 3),
		ProcNet:  procnet.NewReader(procnet.NewTable(), clk, procnet.ZeroParseCost(), 4),
		Packages: procnet.NewPackageManager(),
	})
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)

	ctr := reflect.ValueOf(&e.ctr).Elem()
	unseen := map[float64]string{}
	for i := 0; i < ctr.NumField(); i++ {
		f := ctr.Type().Field(i)
		if f.Type != reflect.TypeFor[atomic.Int64]() {
			t.Fatalf("counters.%s is a %v, not an atomic.Int64", f.Name, f.Type)
		}
		v := int64(1_000_000 + i)
		(*atomic.Int64)(unsafe.Pointer(ctr.Field(i).UnsafeAddr())).Store(v)
		unseen[float64(v)] = f.Name
	}
	for _, f := range r.Gather() {
		if !strings.HasPrefix(f.Name, "mopeye_engine_") || f.Kind != metrics.KindCounter {
			continue
		}
		for _, s := range f.Samples {
			delete(unseen, s.Value)
		}
	}
	for _, name := range unseen {
		t.Errorf("counters.%s is no mopeye_engine_* counter sample", name)
	}
}
