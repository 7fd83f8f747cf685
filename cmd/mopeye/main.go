// Command mopeye runs the MopEye engine and prints the opportunistic
// per-app measurements, like watching the app's all-app view
// (Figure 1a) fill up.
//
// By default the engine runs over a simulated phone and workload. With
// -tun real it attaches to a kernel TUN device instead (build with
// `-tags realtun`, run privileged): packets the host routes into the
// device are relayed through kernel sockets — directly, or through a
// SOCKS5 proxy with -upstream — and every relayed connection yields a
// per-UID measurement, exactly as on the simulated plane.
//
// The live surfaces are wired once (monitor) and work identically on
// both data planes. With -follow each measurement is printed live as
// the engine records it (the streaming Subscribe API); with -jsonl the
// measurement stream goes to stdout as JSON Lines as it is recorded —
// one object per record, ready to pipe into jq or a collector — and the
// human-readable report moves to stderr. The two compose:
// `mopeye -follow -jsonl | jq .rtt_ns`.
//
// With -upload the phone runs the paper's §4 crowdsourcing loop for
// real: a Collector batches the measurements and ships them to a
// collector server (cmd/collectord) over HTTP with retry and
// idempotency-keyed dedup; the final partial batch is flushed when the
// run ends, by -duration or ctrl-c alike.
//
// With -dash the terminal becomes a live per-app dashboard — RTT
// sparklines, DNS/UDP drop counters, engine gauges — refreshing on the
// phone's clock; -dash-addr additionally serves the same frame (and
// the phone's Prometheus /metrics exposition) over HTTP.
//
// Usage:
//
//	mopeye [-apps N] [-conns N] [-pages N] [-realistic] [-variant mopeye|toyvpn|haystack] [-workers N] [-follow] [-jsonl] [-dash [-dash-addr HOST:PORT]] [-upload URL [-device D] [-token T]]
//	mopeye -tun real [-tun-name mopeye0] [-upstream socks5://host:port] [-duration 30s] [-follow] [-jsonl] [-dash [-dash-addr HOST:PORT]] [-upload URL [-device D] [-token T]]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"sync"
	"time"

	"repro/internal/baselines/haystack"
	"repro/internal/engine"
	"repro/internal/upstream"
	"repro/mopeye"
)

// config is the parsed command line.
type config struct {
	apps      int
	pages     int
	conns     int
	realistic bool
	variant   string
	workers   int
	follow    bool
	jsonl     bool
	dash      bool
	dashAddr  string
	upload    string
	device    string
	token     string

	// Real data plane (-tun real).
	tun      string
	tunName  string
	upstream string
	duration time.Duration
}

// parseFlags parses and validates the command line (without running
// anything), so flag handling is unit-testable.
func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("mopeye", flag.ContinueOnError)
	fs.IntVar(&c.apps, "apps", 4, "number of simulated apps")
	fs.IntVar(&c.pages, "pages", 6, "workload rounds per app")
	fs.IntVar(&c.conns, "conns", 4, "concurrent connections per round")
	fs.BoolVar(&c.realistic, "realistic", true, "enable Android-like cost models")
	fs.StringVar(&c.variant, "variant", "mopeye", "engine variant: mopeye, toyvpn or haystack")
	fs.IntVar(&c.workers, "workers", 1, "packet-processing workers (1 = paper-faithful MainWorker)")
	fs.BoolVar(&c.follow, "follow", false, "print each measurement live as the engine records it")
	fs.BoolVar(&c.jsonl, "jsonl", false, "stream measurements to stdout as JSON Lines (report moves to stderr)")
	fs.BoolVar(&c.dash, "dash", false, "render a live per-app RTT dashboard (sparklines, engine gauges) refreshing on the phone's clock")
	fs.StringVar(&c.dashAddr, "dash-addr", "", "additionally serve the dashboard over HTTP on this address (GET / text frame, GET /metrics Prometheus exposition); implies -dash")
	fs.StringVar(&c.upload, "upload", "", "collector server base URL (e.g. http://127.0.0.1:8477): upload measurement batches over HTTP as they accrue")
	fs.StringVar(&c.device, "device", "cli-phone", "device stamp for uploaded records")
	fs.StringVar(&c.token, "token", "", "collector bearer token")
	fs.StringVar(&c.tun, "tun", "sim", "data plane: sim (emulated phone + workload) or real (kernel TUN device; needs -tags realtun and privileges)")
	fs.StringVar(&c.tunName, "tun-name", "", "TUN device name to create (real plane only; empty = kernel-assigned)")
	fs.StringVar(&c.upstream, "upstream", "", "where relayed flows exit (real plane only): direct (default) or socks5://[user:pass@]host:port")
	fs.DurationVar(&c.duration, "duration", 30*time.Second, "how long to monitor on the real plane (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}

	if c.workers < 1 {
		return config{}, fmt.Errorf("mopeye: bad -workers %d (want N >= 1)", c.workers)
	}
	switch c.variant {
	case "mopeye", "toyvpn", "haystack":
	default:
		return config{}, fmt.Errorf("mopeye: unknown -variant %q (want mopeye, toyvpn or haystack)", c.variant)
	}

	// -dash-addr implies the dashboard; the dashboard owns the
	// terminal, so the other live printers are mutually exclusive with
	// it.
	if c.dashAddr != "" {
		c.dash = true
	}
	if c.dash && c.follow {
		return config{}, fmt.Errorf("mopeye: -dash and -follow both own the terminal; pick one")
	}
	if c.dash && c.jsonl {
		return config{}, fmt.Errorf("mopeye: -dash and -jsonl conflict; scrape -dash-addr instead")
	}

	switch c.tun {
	case "sim":
		if c.tunName != "" {
			return config{}, fmt.Errorf("mopeye: -tun-name needs -tun real")
		}
		if c.upstream != "" {
			return config{}, fmt.Errorf("mopeye: -upstream needs -tun real (the simulated plane dials the emulated network)")
		}
	case "real":
		if _, err := upstream.ParseSpec(c.upstream); err != nil {
			return config{}, err
		}
	default:
		return config{}, fmt.Errorf("mopeye: bad -tun %q (want sim or real)", c.tun)
	}
	return c, nil
}

func (c config) engineConfig() engine.Config {
	switch c.variant {
	case "toyvpn":
		return engine.ToyVpn()
	case "haystack":
		return haystack.Config()
	default:
		return engine.Default()
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run := runSim
	if cfg.tun == "real" {
		run = runReal
	}
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// livePhone is what the shared wiring drives: the simulated Phone and
// the real-plane RealPhone alike.
type livePhone interface {
	mopeye.DashPhone
	Attach(mopeye.Sink) (*mopeye.Attached, error)
	Close()
}

// reportWriter picks where the human-readable report goes: stdout
// normally, stderr when stdout carries the JSONL measurement stream.
func reportWriter(cfg config, stdout, stderr io.Writer) io.Writer {
	if cfg.jsonl {
		return stderr
	}
	return stdout
}

// monitor is the one place the live surfaces are wired, whichever data
// plane the phone runs on: -jsonl and -upload are attached sinks, -dash
// and -follow ordinary subscribers. It then runs work — the simulated
// workload, or the real plane's wait for -duration or ctrl-c — and the
// one closing sequence: close the phone (which drains the streams and
// flushes the sinks, the collector's final partial batch included),
// wait for the printers, drain the transport, report the uploads.
func monitor(cfg config, phone livePhone, stdout, out io.Writer, work func()) error {
	if cfg.jsonl {
		if _, err := phone.Attach(mopeye.NewJSONLSink(stdout)); err != nil {
			return err
		}
	}

	// printers are the subscriber goroutines; each ends when the phone
	// closes, after delivering every measurement already recorded.
	var printers sync.WaitGroup
	if cfg.dash {
		d, err := mopeye.NewDash(phone, mopeye.DashOptions{
			Interval: 500 * time.Millisecond,
			Out:      out,
			Addr:     cfg.dashAddr,
		})
		if err != nil {
			return err
		}
		if d.Addr() != "" {
			fmt.Fprintf(out, "dash: http://%s (GET / text frame, GET /metrics exposition)\n", d.Addr())
		}
		printers.Add(1)
		go func() {
			defer printers.Done()
			_ = d.Run(context.Background())
		}()
	}
	if cfg.follow {
		// Subscribe registers before returning, so every measurement
		// recorded from here on is observed — no startup race.
		stream := phone.Subscribe(context.Background(), mopeye.Filter{})
		printers.Add(1)
		go func() {
			defer printers.Done()
			for m := range stream {
				fmt.Fprintf(out, "%s %-4s %-36s -> %-21s %8.1f ms\n",
					m.At.Format("15:04:05.000"), m.Kind, m.App, m.Dst, m.RTT.Seconds()*1000)
			}
		}()
	}

	// The crowdsourcing upload path: a Collector batches measurements
	// and ships them to the collector server over HTTP, retries and
	// idempotency keys included — the deployed app's §4 loop.
	var transport *mopeye.HTTPTransport
	if cfg.upload != "" {
		transport = mopeye.NewHTTPTransport(cfg.upload, mopeye.HTTPTransportOptions{Token: cfg.token})
		collector := mopeye.NewCollector(mopeye.CollectorOptions{
			BatchSize: 64,
			Device:    cfg.device,
			Transport: transport,
		})
		if _, err := phone.Attach(collector); err != nil {
			transport.Close()
			return err
		}
	}

	work()

	phone.Close()
	printers.Wait()
	if transport != nil {
		// Close drains the queued batches (the final flush included)
		// before the stats are read.
		if err := transport.Close(); err != nil {
			fmt.Fprintf(out, "upload: %v\n", err)
		}
		ts := transport.Stats()
		fmt.Fprintf(out, "uploaded %d batches to %s (%d retries, %d dropped, %d failed)\n",
			ts.Uploaded, cfg.upload, ts.Retried, ts.Dropped, ts.Failed)
	}
	return nil
}

// runReal attaches the engine to a kernel TUN device and reports what
// the host's routed traffic measures.
func runReal(cfg config, stdout, stderr io.Writer) error {
	ecfg := cfg.engineConfig()
	phone, err := mopeye.NewReal(mopeye.RealOptions{
		TunName:  cfg.tunName,
		Upstream: cfg.upstream,
		Engine:   &ecfg,
		Workers:  cfg.workers,
	})
	if err != nil {
		return err
	}
	defer phone.Close()

	out := reportWriter(cfg, stdout, stderr)
	fmt.Fprintf(out, "mopeye on %s (mtu %d), upstream %s — route traffic into the device to measure it\n",
		phone.Device(), phone.MTU(), upstreamLabel(cfg.upstream))
	if cfg.duration > 0 {
		fmt.Fprintf(out, "monitoring for %v...\n", cfg.duration)
	} else {
		fmt.Fprintln(out, "monitoring until interrupted (ctrl-c)...")
	}

	// ctrl-c and -duration both just end the wait; the closing sequence
	// is the same either way.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if cfg.duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}
	if err := monitor(cfg, phone, stdout, out, func() { <-ctx.Done() }); err != nil {
		return err
	}

	st := phone.EngineStats()
	ts := phone.TunStats()
	fmt.Fprintf(out, "tun: %d packets in, %d out; engine: %d SYNs, %d established, %d failures\n",
		ts.PacketsOut, ts.PacketsIn, st.SYNs, st.Established, st.ConnectFailures)
	printAppReport(out, phone.TCPMeasurements(), phone.AppMedians(1))
	return nil
}

func upstreamLabel(s string) string {
	if s == "" {
		return "direct"
	}
	return s
}

// runSim is the original mode: a simulated phone, network and
// workload. stdout/stderr are injected so the whole run is
// unit-testable.
func runSim(cfg config, stdout, stderr io.Writer) error {
	ecfg := cfg.engineConfig()
	servers := []mopeye.Server{
		{Domain: "social.example.com", RTTMillis: 61, Behaviour: mopeye.Chatty},
		{Domain: "video.example.com", RTTMillis: 32, Behaviour: mopeye.Chatty},
		{Domain: "chat.example.com", RTTMillis: 133, Behaviour: mopeye.Chatty},
		{Domain: "shop.example.com", RTTMillis: 59, Behaviour: mopeye.Chatty},
		{Domain: "maps.example.com", RTTMillis: 38, Behaviour: mopeye.Chatty},
	}
	phone, err := mopeye.New(mopeye.Options{
		Servers:        servers,
		Engine:         &ecfg,
		Workers:        cfg.workers,
		RealisticCosts: cfg.realistic,
	})
	if err != nil {
		return err
	}
	defer phone.Close()

	pkgs := []string{
		"com.facebook.katana", "com.google.android.youtube",
		"com.whatsapp", "com.amazon.shopping", "com.google.android.apps.maps",
	}
	apps := cfg.apps
	if apps > len(pkgs) {
		apps = len(pkgs)
	}
	for i := 0; i < apps; i++ {
		phone.InstallApp(10001+i, pkgs[i])
	}

	out := reportWriter(cfg, stdout, stderr)
	fmt.Fprintf(out, "running %s engine (%d workers): %d apps x %d rounds x %d connections...\n",
		cfg.variant, cfg.workers, apps, cfg.pages, cfg.conns)
	start := time.Now()
	if err := monitor(cfg, phone, stdout, out, func() { browse(cfg, phone, servers, apps) }); err != nil {
		return err
	}

	// The snapshot accessors keep working on the closed phone.
	st := phone.EngineStats()
	fmt.Fprintf(out, "done in %v: %d SYNs, %d established, %d failures, %d pure ACKs discarded\n",
		time.Since(start).Round(time.Millisecond), st.SYNs, st.Established,
		st.ConnectFailures, st.PureACKs)
	fmt.Fprintf(out, "mapping: %d resolutions, %d parses, mitigation %.0f%%\n\n",
		st.Mapping.Resolutions, st.Mapping.Parses, st.Mapping.MitigationRate()*100)

	printAppReport(out, phone.TCPMeasurements(), phone.AppMedians(1))
	fmt.Fprintf(out, "\nDNS: %d measurements, median %.1f ms\n",
		len(phone.DNSMeasurements()), medianMS(phone.DNSMeasurements()))
	return nil
}

// browse is the simulated workload: each app fetches pages rounds of
// conns concurrent connections from its server.
func browse(cfg config, phone *mopeye.Phone, servers []mopeye.Server, apps int) {
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			dst := servers[a%len(servers)].Domain + ":443"
			uid := 10001 + a
			for p := 0; p < cfg.pages; p++ {
				var inner sync.WaitGroup
				for c := 0; c < cfg.conns; c++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						conn, err := phone.Connect(uid, dst)
						if err != nil {
							return
						}
						defer conn.Close()
						if _, err := conn.Write([]byte{0, 0, 8, 0}); err != nil {
							return
						}
						buf := make([]byte, 2048)
						_ = conn.ReadFull(buf)
					}()
				}
				inner.Wait()
			}
		}(a)
	}
	wg.Wait()
}

// printAppReport renders the per-app median view (Figure 1a).
func printAppReport(out io.Writer, tcp []mopeye.Measurement, meds map[string]float64) {
	fmt.Fprintln(out, "per-app view (median RTT, like Figure 1a):")
	names := make([]string, 0, len(meds))
	for n := range meds {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return meds[names[i]] < meds[names[j]] })
	for _, n := range names {
		count := 0
		for _, m := range tcp {
			if m.App == n {
				count++
			}
		}
		fmt.Fprintf(out, "  %-36s %6.1f ms  (%d measurements)\n", n, meds[n], count)
	}
}

func medianMS(recs []mopeye.Measurement) float64 {
	if len(recs) == 0 {
		return 0
	}
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = r.RTT.Seconds() * 1000
	}
	sort.Float64s(ms)
	return ms[len(ms)/2]
}
