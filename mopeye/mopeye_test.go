package mopeye

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
)

func newPhone(t *testing.T) *Phone {
	t.Helper()
	p, err := New(Options{
		Servers: []Server{
			{Domain: "api.example.com", RTTMillis: 40},
			{Domain: "cdn.example.com", RTTMillis: 12, Behaviour: Chatty},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.InstallApp(10001, "com.example.app")
	return p
}

// awaitRecords subscribes to p, so call it before the workload. The
// wait it returns reads that subscription until n records that keep
// accepts (any record, when keep is nil) have arrived, or 3 s have
// passed.
func awaitRecords(p *Phone, n int, keep func(Measurement) bool) (wait func()) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	stream := p.Subscribe(ctx)
	return func() {
		defer cancel()
		for m := range stream {
			if keep == nil || keep(m) {
				if n--; n == 0 {
					return
				}
			}
		}
	}
}

func isTCP(m Measurement) bool { return m.Kind == measure.KindTCP }

func TestConnectMeasureEcho(t *testing.T) {
	p := newPhone(t)
	wait := awaitRecords(p, 1, isTCP)
	conn, err := p.Connect(10001, "api.example.com:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("through the facade")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echo %q", buf)
	}
	wait()
	tcp := p.TCPMeasurements()
	if len(tcp) != 1 {
		t.Fatalf("TCP measurements: %d", len(tcp))
	}
	if tcp[0].App != "com.example.app" {
		t.Errorf("app: %q", tcp[0].App)
	}
	if ms := tcp[0].RTT.Seconds() * 1000; ms < 38 || ms > 80 {
		t.Errorf("RTT %.1f ms, configured 40", ms)
	}
	// Connecting by domain produced one DNS measurement too.
	if len(p.DNSMeasurements()) != 1 {
		t.Errorf("DNS measurements: %d", len(p.DNSMeasurements()))
	}
}

func TestLiteralAddressSkipsDNS(t *testing.T) {
	p, err := New(Options{
		Servers: []Server{{Domain: "x.example", Addr: "203.0.113.7:80", RTTMillis: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.InstallApp(1, "a")
	conn, err := p.Connect(1, "203.0.113.7:80")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if len(p.DNSMeasurements()) != 0 {
		t.Error("literal address still triggered DNS")
	}
}

func TestGroundTruthMatchesMeasurement(t *testing.T) {
	p, err := New(Options{
		Servers: []Server{{Domain: "gt.example", Addr: "203.0.113.9:443", RTTMillis: 24}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.InstallApp(7, "com.gt")
	wait := awaitRecords(p, 5, isTCP)
	for i := 0; i < 5; i++ {
		conn, err := p.Connect(7, "203.0.113.9:443")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	wait()
	truth, err := p.GroundTruthRTTs("203.0.113.9:443")
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 5 {
		t.Fatalf("ground truth samples: %d", len(truth))
	}
	recs := p.TCPMeasurements()
	for i, r := range recs {
		ms := r.RTT.Seconds() * 1000
		if d := ms - truth[i]; d < -1.5 || d > 1.5 {
			t.Errorf("probe %d: MopEye %.2f vs tcpdump %.2f (paper: within 1 ms)", i, ms, truth[i])
		}
	}
}

func TestAppMedians(t *testing.T) {
	p := newPhone(t)
	wait := awaitRecords(p, 4, isTCP)
	for i := 0; i < 4; i++ {
		conn, err := p.Connect(10001, "api.example.com:443")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	wait()
	med := p.AppMedians(2)
	m, ok := med["com.example.app"]
	if !ok {
		t.Fatalf("app missing from medians: %v", med)
	}
	if m < 35 || m > 80 {
		t.Errorf("median %.1f ms", m)
	}
}

func TestSplitHostPort(t *testing.T) {
	cases := []struct {
		in   string
		host string
		port uint16
		ok   bool
	}{
		{"example.com:443", "example.com", 443, true},
		{"1.2.3.4:80", "1.2.3.4", 80, true},
		{"[::1]:443", "::1", 443, true},
		{"[2001:db8::2]:8080", "2001:db8::2", 8080, true},
		{"example.com", "", 0, false},       // bare host, no port
		{"::1:443", "", 0, false},           // unbracketed IPv6: ambiguous
		{"example.com:", "", 0, false},      // empty port
		{"example.com:0", "", 0, false},     // port zero
		{"example.com:70000", "", 0, false}, // port out of range
		{"example.com:https", "", 0, false}, // named port unsupported
		{":443", "", 0, false},              // empty host
		{"", "", 0, false},
	}
	for _, c := range cases {
		host, port, err := splitHostPort(c.in)
		if c.ok {
			if err != nil {
				t.Errorf("%q: unexpected error %v", c.in, err)
				continue
			}
			if host != c.host || port != c.port {
				t.Errorf("%q: got (%q, %d), want (%q, %d)", c.in, host, port, c.host, c.port)
			}
		} else if err == nil {
			t.Errorf("%q: accepted as (%q, %d)", c.in, host, port)
		}
	}
}

func TestBadDestinations(t *testing.T) {
	p := newPhone(t)
	if _, err := p.Connect(10001, "noport.example.com"); err == nil {
		t.Error("missing port accepted")
	}
	if _, err := p.Connect(10001, "nosuch.example:443"); err == nil {
		t.Error("unresolvable name accepted")
	}
}

func TestEngineStatsExposed(t *testing.T) {
	p := newPhone(t)
	conn, err := p.Connect(10001, "api.example.com:443")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	st := p.EngineStats()
	if st.SYNs < 1 || st.Established < 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStudyReports(t *testing.T) {
	s := NewStudy(0.01, 99)
	all := s.ReportAll()
	for _, want := range []string{
		"Figure 6", "Figure 7", "Figure 8", "Figure 9(a)", "Figure 9(b)",
		"Table 5", "Figure 10(a)", "Figure 10(b)", "Table 6", "Figure 11",
		"Case 1", "Case 2", "Whatsapp", "Jio",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(s.Summary(), "measurements") {
		t.Error("summary malformed")
	}
}

func TestChattyBehaviour(t *testing.T) {
	p := newPhone(t)
	conn, err := p.Connect(10001, "cdn.example.com:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := conn.ReadFull(buf); err != nil {
		t.Fatalf("chatty response: %v", err)
	}
}

func TestAppTrafficViaFacade(t *testing.T) {
	p := newPhone(t)
	wait := awaitRecords(p, 1, isTCP)
	conn, err := p.Connect(10001, "api.example.com:443")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5000)
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The engine attributes the flow before it records the flow's RTT,
	// and the echo has passed both ways through the relay: once the
	// record is in, the volume is the app's.
	wait()
	for _, a := range p.AppTraffic() {
		if a.App == "com.example.app" && a.BytesUp >= 5000 && a.BytesDown >= 5000 {
			return
		}
	}
	t.Fatalf("traffic not attributed: %+v", p.AppTraffic())
}

// TestLoopbackFlood floods a zero-delay loopback phone, at one worker
// and at several, with three live subscribers attached and the metrics
// registry scraped throughout. Every TCP echo must complete, every UDP
// datagram must be relayed or accounted as a drop, every subscriber must
// see every record, and observing the flood must not disturb it.
func TestLoopbackFlood(t *testing.T) {
	const (
		apps        = 2
		connsPerApp = 2
		echoes      = 5
		udpPerConn  = 3
		subscribers = 3
		conns       = apps * connsPerApp
	)
	udpEcho := netip.MustParseAddrPort("203.0.113.200:7777")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			servers := make([]Server, apps)
			for a := range servers {
				servers[a] = Server{
					Domain: fmt.Sprintf("flood%d.example", a),
					Addr:   fmt.Sprintf("203.0.113.%d:80", 10+a),
				}
			}
			p, err := New(Options{Servers: servers, Workers: workers, Loopback: true})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for a := range servers {
				p.InstallApp(20001+a, fmt.Sprintf("flood.app%d", a))
			}
			p.bed.Net.HandleUDP(udpEcho, 0, netsim.EchoUDPHandler())

			// Subscribe registers synchronously, so every stream sees the
			// flood from its first record and ends when the phone closes.
			var streamed atomic.Int64
			var subWG sync.WaitGroup
			for i := 0; i < subscribers; i++ {
				stream := p.Subscribe(context.Background())
				subWG.Add(1)
				go func() {
					defer subWG.Done()
					for range stream {
						streamed.Add(1)
					}
				}()
			}

			// Literal destinations skip DNS, so each connection is one
			// record — landed by its socket-connect thread after the lazy
			// mapping, possibly later than the app's last echo.
			wait := awaitRecords(p, conns, nil)

			// Arm the registry before the flood, then scrape it until the
			// flood is over.
			if err := p.WriteMetrics(io.Discard); err != nil {
				t.Fatal(err)
			}
			floodDone := make(chan struct{})
			scrapeDone := make(chan struct{})
			go func() {
				defer close(scrapeDone)
				for {
					select {
					case <-floodDone:
						return
					default:
					}
					if err := p.WriteMetrics(io.Discard); err != nil {
						t.Errorf("scrape during flood: %v", err)
						return
					}
				}
			}()

			var floodWG sync.WaitGroup
			for a := 0; a < apps; a++ {
				for c := 0; c < connsPerApp; c++ {
					floodWG.Add(1)
					go func(a int) {
						defer floodWG.Done()
						conn, err := p.Connect(20001+a, servers[a].Addr)
						if err != nil {
							t.Errorf("connect: %v", err)
							return
						}
						defer conn.Close()
						msg := make([]byte, 256)
						buf := make([]byte, len(msg))
						for i := 0; i < echoes; i++ {
							if _, err := conn.Write(msg); err != nil {
								t.Errorf("write: %v", err)
								return
							}
							if err := conn.ReadFull(buf); err != nil {
								t.Errorf("echo: %v", err)
								return
							}
						}
						u, err := p.bed.Phone.OpenUDP(20001 + a)
						if err != nil {
							t.Errorf("open udp: %v", err)
							return
						}
						defer u.Close()
						for i := 0; i < udpPerConn; i++ {
							if err := u.SendTo(udpEcho, msg[:64]); err != nil {
								t.Errorf("udp send: %v", err)
								return
							}
						}
						// The relay may shed under overload, so a missing
						// response is not an error; the accounting below
						// is the check.
						for i := 0; i < udpPerConn; i++ {
							if _, _, err := u.Recv(200 * time.Millisecond); err != nil {
								break
							}
						}
					}(a)
				}
			}
			floodWG.Wait()
			close(floodDone)
			<-scrapeDone

			// Loopback UDP cannot lose datagrams in transit; every one is
			// either relayed or accounted as a queue drop.
			st := p.EngineStats()
			if sent := conns * udpPerConn; st.UDPRelayed+st.UDPDropped < sent {
				t.Errorf("udp relayed %d + dropped %d < sent %d", st.UDPRelayed, st.UDPDropped, sent)
			}

			// Close ends the streams after delivering what is recorded;
			// only then are the stream counters complete.
			wait()
			p.Close()
			subWG.Wait()
			if n := len(p.Measurements()); n != conns {
				t.Errorf("records: %d, want one per connection (%d)", n, conns)
			}
			if got := streamed.Load() + int64(p.StreamDrops()); got != subscribers*conns {
				t.Errorf("streamed %d + dropped %d != subscribers %d x records %d",
					streamed.Load(), p.StreamDrops(), subscribers, conns)
			}
			if d := p.StreamDrops(); d != 0 {
				t.Errorf("drops at measurement rates: %d", d)
			}
		})
	}
}
