package mopeye

import (
	"context"
	"fmt"
	"io"
	"iter"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/metrics"
)

// This file is the live dashboard behind `mopeye -dash`: the paper's
// Figure 1a all-app view as a terminal (and optionally HTTP) surface
// that refreshes while the engine runs. The dashboard is an ordinary
// measurement subscriber — it rides Phone.Subscribe's bounded lag, so
// a stalled terminal can never stall a relay worker — and its refresh
// is paced by the phone's own clock, so a phone running simulated time
// renders one frame per simulated interval, not per wall interval.

// DashPhone is a phone the dashboard can attach to: the simulated
// Phone and the real-plane RealPhone both satisfy it. The unexported
// clock accessor keeps the set closed — the dashboard's pacing
// contract (frames on the phone's time source) is not implementable
// from outside the package.
type DashPhone interface {
	// Subscribe taps the live measurement stream.
	Subscribe(ctx context.Context) iter.Seq[Measurement]
	// EngineStats reads the engine's counters for the header gauges.
	EngineStats() engine.Stats
	// StreamDrops reports records lost by subscribers that lagged too far.
	StreamDrops() uint64
	// WriteMetrics renders the phone's Prometheus exposition (the
	// dashboard's HTTP mode serves it at /metrics).
	WriteMetrics(w io.Writer) error

	// dashClock is the time source frames are paced on.
	dashClock() clock.Clock
}

// DashOptions configures a dashboard.
type DashOptions struct {
	// Interval is the refresh period, measured on the phone's clock.
	// Default 1s.
	Interval time.Duration
	// Out receives the rendered frames. Default os.Stdout.
	Out io.Writer
	// Addr, when non-empty, additionally serves the dashboard over
	// HTTP: GET / returns the current frame as text, GET /metrics the
	// phone's Prometheus exposition. Use "127.0.0.1:0" for an
	// ephemeral port (see Dash.Addr).
	Addr string
}

// Frame layout: the per-app rows, busiest first, and each row's RTT
// sparkline window (one cell per measurement, newest right).
const (
	dashApps  = 12
	dashWidth = 32
)

// Dash is a live per-app RTT dashboard attached to one phone.
// Construct with NewDash, drive with Run; Addr reports the HTTP
// endpoint when one was requested.
type Dash struct {
	p  DashPhone
	o  DashOptions
	ln net.Listener

	mu     sync.Mutex
	apps   map[string]*dashApp
	frames int
}

// dashApp is one app's rolling view.
type dashApp struct {
	tcp    int       // TCP measurements seen
	dns    int       // DNS measurements seen
	last   float64   // most recent RTT (ms)
	window []float64 // last dashWidth RTTs, oldest first
}

// NewDash validates the options and, when Addr is set, binds the HTTP
// listener (so an ephemeral port is known before Run starts).
func NewDash(p DashPhone, o DashOptions) (*Dash, error) {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	d := &Dash{p: p, o: o, apps: make(map[string]*dashApp)}
	if o.Addr != "" {
		ln, err := net.Listen("tcp", o.Addr)
		if err != nil {
			return nil, fmt.Errorf("mopeye: dash listener: %w", err)
		}
		d.ln = ln
	}
	return d, nil
}

// Addr returns the HTTP endpoint's address ("" when DashOptions.Addr
// was empty).
func (d *Dash) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Run subscribes to the phone and renders frames until ctx is
// cancelled or the phone closes, then renders one final frame and
// returns. Call once.
func (d *Dash) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if d.ln != nil {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, d.frame(true))
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", metrics.ContentType)
			_ = d.p.WriteMetrics(w)
		})
		hs := &http.Server{Handler: mux}
		go hs.Serve(d.ln)
		defer hs.Close()
	}

	// The dashboard is an ordinary subscriber: the stream ends when the
	// phone closes, which is also the dashboard's natural end.
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stream := d.p.Subscribe(subCtx)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for m := range stream {
			d.observe(m)
		}
	}()

	clk := d.p.dashClock()
	for {
		select {
		case <-ctx.Done():
			cancel()
			<-streamDone // let the reader stop before the final frame
			d.render()
			return nil
		case <-streamDone:
			d.render()
			return nil
		case <-clk.After(d.o.Interval):
			d.render()
		}
	}
}

// observe folds one measurement into the per-app state.
func (d *Dash) observe(m Measurement) {
	d.mu.Lock()
	defer d.mu.Unlock()
	name := m.App
	if name == "" {
		name = "(unattributed)"
	}
	a := d.apps[name]
	if a == nil {
		a = &dashApp{}
		d.apps[name] = a
	}
	if m.Kind == measure.KindDNS {
		a.dns++
	} else {
		a.tcp++
	}
	a.last = m.Millis()
	a.window = append(a.window, a.last)
	if len(a.window) > dashWidth {
		a.window = a.window[len(a.window)-dashWidth:]
	}
}

// render writes one frame to Out, homing the cursor and clearing the
// terminal first.
func (d *Dash) render() {
	fmt.Fprint(d.o.Out, d.frame(false))
}

// frame renders the current state; plain frames carry no ANSI codes.
func (d *Dash) frame(plain bool) string {
	st := d.p.EngineStats()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frames++

	var b strings.Builder
	if !plain {
		b.WriteString("\x1b[H\x1b[2J") // home + clear
	}
	fmt.Fprintf(&b, "mopeye dash · frame %d · %s\n",
		d.frames, d.p.dashClock().Now().Format("15:04:05.000"))
	fmt.Fprintf(&b, "engine: %d pkts in / %d out · %d syns · %d established · %d connect-fail\n",
		st.PacketsFromTun, st.PacketsToTun, st.SYNs, st.Established, st.ConnectFailures)
	fmt.Fprintf(&b, "dns: %d measured / %d timeouts · udp: %d relayed / %d dropped · stream-drops: %d\n",
		st.DNSMeasurements, st.DNSTimeouts, st.UDPRelayed, st.UDPDropped, d.p.StreamDrops())

	names := make([]string, 0, len(d.apps))
	for n := range d.apps {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := d.apps[names[i]], d.apps[names[j]]
		if ai.tcp+ai.dns != aj.tcp+aj.dns {
			return ai.tcp+ai.dns > aj.tcp+aj.dns
		}
		return names[i] < names[j]
	})
	if len(names) > dashApps {
		names = names[:dashApps]
	}
	for _, n := range names {
		a := d.apps[n]
		fmt.Fprintf(&b, "  %-36s %4d tcp %3d dns  last %7.1f ms  %s\n",
			n, a.tcp, a.dns, a.last, sparkline(a.window))
	}
	return b.String()
}

// sparkRunes is the 8-level bar alphabet, lowest first.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline scales a window of RTTs into bar runes, min to max.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}
