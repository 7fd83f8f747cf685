package mopeye

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/procnet"
	"repro/internal/sockets"
	"repro/internal/tun"
)

// Both planes drive the dashboard (and everything else) through the
// one core.
var (
	_ DashPhone = (*Phone)(nil)
	_ DashPhone = (*RealPhone)(nil)
)

// bareCore builds a core the way a plane does, but over nothing: a
// started engine on an idle emulated TUN with no network behind its
// socket provider, a bare store the test records into directly, and a
// teardown that only counts its calls. No testbed, no kernel device.
func bareCore(t *testing.T) (*core, *measure.Store, *atomic.Int32) {
	t.Helper()
	clk := clock.NewReal()
	store := measure.NewStore()
	eng := engine.New(engine.Default(), engine.Deps{
		Clock:    clk,
		Device:   tun.New(clk, 16),
		Sockets:  sockets.NewProvider(nil, clk, netip.IPv4Unspecified(), sockets.CostModel{}, 1),
		ProcNet:  procnet.NewReader(procnet.NewTable(), clk, procnet.ZeroParseCost(), 1),
		Packages: procnet.NewPackageManager(),
		Store:    store,
	})
	eng.Start()
	var torn atomic.Int32
	c := new(core)
	c.init(eng, clk, func() { torn.Add(1) })
	t.Cleanup(c.Close)
	return c, store, &torn
}

// countSink counts what it accepts and remembers whether it was
// flushed.
type countSink struct {
	accepted atomic.Int32
	flushed  atomic.Bool
}

func (s *countSink) Accept(Measurement) error { s.accepted.Add(1); return nil }
func (s *countSink) Flush() error             { s.flushed.Store(true); return nil }
func (s *countSink) Close() error             { return nil }

func testRecord(i int) measure.Record {
	kind := measure.KindTCP
	if i%4 == 0 {
		kind = measure.KindDNS
	}
	return measure.Record{Kind: kind, App: "core.test", UID: 10001, RTT: time.Duration(i+1) * time.Millisecond}
}

// Close joins the metrics quantile drain: every record added before
// Close is in mopeye_phone_rtt_ms once it returns, so a scrape right
// after Close cannot miss the tail.
func TestCoreCloseJoinsMetricsDrain(t *testing.T) {
	c, store, torn := bareCore(t)
	if err := c.WriteMetrics(io.Discard); err != nil { // arm the feed
		t.Fatal(err)
	}
	const n = 1000 // under the subscriber lag bound, so nothing may drop
	for i := 0; i < n; i++ {
		store.Add(testRecord(i))
	}
	c.Close()

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`mopeye_phone_rtt_ms_count{kind="tcp"} %d`+"\n", n-n/4),
		fmt.Sprintf(`mopeye_phone_rtt_ms_count{kind="dns"} %d`+"\n", n/4),
		"mopeye_stream_dropped_total 0\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition after Close missing %q\n%s", want, buf.String())
		}
	}
	if got := torn.Load(); got != 1 {
		t.Errorf("plane teardown ran %d times, want once", got)
	}
	if len(c.Measurements()) != n {
		t.Errorf("snapshot accessors on the closed core see %d records, want %d", len(c.Measurements()), n)
	}
}

// Close runs the plane's teardown last: the sinks have accepted every
// record and been flushed by the time it is called.
func TestCoreCloseFlushesSinksBeforeTeardown(t *testing.T) {
	c, store, _ := bareCore(t)
	var sink countSink
	c.teardown = func() {
		if got := sink.accepted.Load(); got != 3 || !sink.flushed.Load() {
			t.Errorf("teardown ran with %d of 3 records accepted, flushed=%v", got, sink.flushed.Load())
		}
	}
	if _, err := c.Attach(&sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		store.Add(testRecord(i))
	}
	c.Close()
}

// Attach on a closed core errors, Run returns once it is closed, and
// Subscribe/Attach/WriteMetrics racing Close are clean under -race.
func TestCoreConcurrentSubscribeAttachClose(t *testing.T) {
	c, store, torn := bareCore(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for range c.Subscribe(context.Background(), Filter{Kind: TCPOnly}) {
			}
		}()
		go func() {
			defer wg.Done()
			if a, err := c.Attach(new(countSink)); err == nil {
				c.Close()
				if err := a.Err(); err != nil {
					t.Errorf("attached sink: %v", err)
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			_ = c.WriteMetrics(io.Discard)
			for i := 0; i < 50; i++ {
				store.Add(testRecord(g*50 + i))
			}
			c.Close()
		}(g)
	}
	wg.Wait()

	if _, err := c.Attach(new(countSink)); err == nil {
		t.Error("Attach on a closed core succeeded")
	}
	if err := c.Run(context.Background()); err != nil {
		t.Errorf("Run on a closed core = %v, want nil", err)
	}
	for range c.Subscribe(context.Background(), Filter{}) {
		t.Error("Subscribe on a closed core yielded a record")
	}
	if got := torn.Load(); got != 1 {
		t.Errorf("plane teardown ran %d times across concurrent Closes, want once", got)
	}
}
