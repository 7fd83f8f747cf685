package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/tun"
)

// Load shape, fixed for every workload (README.md "Load shape"): a
// closed loop driven by exactly this many goroutines. It is a constant,
// not runtime.NumCPU(): both sides of a later A/B must offer the same
// load whatever host they run on.
const drivers = 2

// setupRepeats is how many times the timed pass builds its fixture;
// setup_s is the median, so one slow page fault does not set it.
const setupRepeats = 9

// watchdogLimit bounds one timed section. Connects and lookups carry
// their own timeouts and count as failed operations; a read that never
// returns has none, so a section still running at the limit ends the
// process non-zero with no result — a hang can never read as a fast run.
const watchdogLimit = 120 * time.Second

// config is the parsed command line.
type config struct {
	seed   int64
	scale  float64 // 1.0 = the README sizes (-seconds 10)
	trace  bool
	outDir string
}

// workload is one named set of inputs. build does everything that
// precedes the timed section and returns the job to time.
type workload struct {
	name  string
	why   string
	build func(p *pass) (job, error)

	// What layer replay needs to know about the workload's path.
	collector bool // the phone → collector path; no engine runs
	live      int  // flows live at once: the flow-table and selector population
	batched   bool // the engine topology makes batched TUN calls (Workers > 1)
}

// pass is one execution of a workload: the timed pass (tr == nil) or
// the separate traced pass.
type pass struct {
	seed   int64
	scale  float64
	tr     *tracer
	outDir string
	setups int // fixture builds; > 1 only where setup_s is reported
}

// scaled converts a README-size operation count to this pass's size.
func (p *pass) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*p.scale)))
}

// replayer sizes layer replay with the pass: full iteration counts from
// one twentieth of the README sizes up, proportionally fewer below.
func (p *pass) replayer() replayer { return replayer{iters: min(1, 20*p.scale)} }

// job is a built fixture plus the work to do on it.
type job interface {
	// run is the timed section; it starts exactly `drivers` goroutines
	// and returns when both are done.
	run() tally
	// counters snapshots the public stats of every layer the job owns.
	counters() counters
	// ready and settle wait — outside set-up time and outside the timed
	// section — for accounting the system does off the operations' path,
	// after set-up and after the timed section respectively.
	ready() error
	settle(before counters) error
	// verify runs the correctness checks after the timed section.
	verify(t *tally, before, after counters) error
	close()
}

// counters is the union of public stats the jobs snapshot around the
// timed section; fields a job cannot reach stay zero.
type counters struct {
	eng     engine.Stats
	tun     tun.Stats
	selects float64
	ingest  ingestCounters
}

// tally is what the drivers observed.
type tally struct {
	attempted, failed int
	// what names the operation counted and the latency unit timed, for
	// the ledger's human table.
	opName, latName string
	lat             []float64            // µs, the workload's primary app-observed latency
	detail          map[string][]float64 // µs, secondary sample sets (per-layer rows)
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	for k, v := range o.detail {
		if t.detail == nil {
			t.detail = make(map[string][]float64)
		}
		t.detail[k] = append(t.detail[k], v...)
	}
}

// bothDrivers is the load shape: run fn as each of the `drivers`
// goroutines and merge what they observed.
func bothDrivers(fn func(d int) tally) tally {
	var wg sync.WaitGroup
	parts := make([]tally, drivers)
	for d := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[d] = fn(d)
		}()
	}
	wg.Wait()
	var t tally
	for _, part := range parts {
		t.merge(part)
	}
	return t
}

// section is the process-level cost of one timed section.
type section struct {
	wall      time.Duration
	cpu       time.Duration
	heapAfter uint64 // post-GC HeapAlloc, fixture still live
	heapDelta int64  // heapAfter minus post-GC HeapAlloc before
	mallocs   uint64
	gcCycles  uint32
	gcCPU     float64 // seconds, runtime/metrics estimate
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("getrusage: %w", err)) // cpu_s would silently read 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// collect forces two collections: the second empties what the first
// left in sync.Pool victim caches, so HeapAlloc reads what is reachable.
func collect(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// timed measures fn. Heap is read after forced collections on both
// sides, so heapDelta is what the section left reachable, not garbage
// in flight.
func timed(fn func()) section {
	var before, mid, after runtime.MemStats
	collect(&before)
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	s := section{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	s.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&mid)
	s.mallocs = mid.Mallocs - before.Mallocs
	s.gcCycles = mid.NumGC - before.NumGC
	collect(&after)
	s.heapAfter = after.HeapAlloc
	s.heapDelta = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	return s
}

// passResult is everything one pass produced.
type passResult struct {
	setupS float64
	sec    section
	tally  tally
	before counters
	after  counters
}

// runPass builds the fixture p.setups times, times the job under the
// watchdog, and verifies it.
func runPass(w workload, p *pass) (*passResult, error) {
	var j job
	setups := make([]float64, 0, p.setups)
	for i := 0; i < p.setups; i++ {
		if j != nil {
			j.close()
		}
		t0 := time.Now()
		var err error
		if j, err = w.build(p); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer j.close()
	if err := j.ready(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}

	res := &passResult{setupS: quantile(setups, 0.5)}
	dog := time.AfterFunc(watchdogLimit, func() {
		fatal(fmt.Errorf("%s: timed section still running after %s", w.name, watchdogLimit))
	})
	res.before = j.counters()
	res.sec = timed(func() {
		p.tr.start()
		res.tally = j.run()
		p.tr.stop()
	})
	dog.Stop()
	if err := j.settle(res.before); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.after = j.counters()

	if res.tally.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed", w.name, res.tally.failed, res.tally.attempted)
	}
	if err := j.verify(&res.tally, res.before, res.after); err != nil {
		return nil, fmt.Errorf("%s: correctness: %w", w.name, err)
	}
	return res, nil
}

// runWorkload produces one workload's rows: the end-to-end metrics from
// a timed pass with tracing off, or — with -trace 1 — the per-layer
// metrics from a second, traced pass plus layer replay. The traced run
// halves the work per pass so both passes fit one run's budget.
func runWorkload(cfg config, w workload) (*result, error) {
	p := &pass{seed: cfg.seed, scale: cfg.scale, outDir: cfg.outDir, setups: setupRepeats}
	if cfg.trace {
		p.scale /= 2
		p.setups = 1
	}
	base, err := runPass(w, p)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:  w.name,
		Attempted: base.tally.attempted,
		Failed:    base.tally.failed,
		opName:    base.tally.opName,
		latName:   base.tally.latName,
	}
	if !cfg.trace {
		res.Rows = endToEnd(base)
		return res, nil
	}
	tp := *p
	tp.tr = newTracer()
	traced, err := runPass(w, &tp)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.Rows, err = perLayer(w, &tp, base, traced)
	if err != nil {
		return nil, err
	}
	if err := tp.tr.write(cfg.outDir, w.name, cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd derives the user-visible metrics. Every workload reports
// every one of them; README.md says what "operation" and "latency"
// mean on each workload.
func endToEnd(r *passResult) []row {
	n := len(r.tally.lat)
	ok := float64(r.tally.attempted - r.tally.failed)
	return []row{
		{Metric: "setup_s", Unit: "s", Value: r.setupS, Samples: setupRepeats},
		{Metric: "ops_per_s", Unit: "1/s", Value: ok / r.sec.wall.Seconds(), Samples: r.tally.attempted},
		{Metric: "latency_us_p50", Unit: "us", Value: quantile(r.tally.lat, 0.5), Samples: n},
		{Metric: "latency_us_p90", Unit: "us", Value: quantile(r.tally.lat, 0.9), Samples: n},
		{Metric: "cpu_s", Unit: "s", Value: r.sec.cpu.Seconds(), Samples: 1},
		{Metric: "heap_after_MB", Unit: "MB", Value: float64(r.sec.heapAfter) / 1e6, Samples: 1},
	}
}

// quantile is the nearest-rank quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

var workloads = []workload{
	{
		name:  "relay_small",
		why:   "16 B echoes over 256 standing flows at Workers=1: per-packet cost is everything, the bare-forwarding case",
		build: buildRelay(relaySpec{workers: 1, flows: 256, rounds: 2500, payload: 16, warm: 10}),
		live:  256,
	},
	{
		name:  "relay_small_sharded",
		why:   "identical traffic at Workers=2, so a change to the sharded, batched pipeline shows here and not on relay_small",
		build: buildRelay(relaySpec{workers: 2, flows: 256, rounds: 2500, payload: 16, warm: 10}),
		live:  256, batched: true,
	},
	{
		name:  "relay_bulk",
		why:   "64 KiB echoes over 2 flows: per-byte cost (checksum, copies, segmentation) dominates, per-flow state does nothing",
		build: buildRelay(relaySpec{workers: 1, flows: 2, rounds: 6000, payload: 64 << 10, warm: 20}),
		live:  2,
	},
	{
		name:  "flow_churn",
		why:   "40,000 short flows with periodic DNS: SYN, lazy UID mapping, external connect, RTT record, teardown, pooled UDP relay",
		build: buildFlows(flowsSpec{loopback: true, servers: 4, flows: 20000, resolveEvery: 16, warm: 100}),
		live:  drivers,
	},
	{
		name:  "paced_accuracy",
		why:   "400 flows over a real-clock 20 ms path: wire-bound, so only timing fidelity and connect overhead can move",
		build: buildFlows(flowsSpec{rttMillis: 20, servers: 2, flows: 200, resolveEvery: 8, ownServer: true, warm: 2}),
		live:  drivers,
	},
	{
		name:      "collector_ingest",
		why:       "640,000 records over HTTP into collectord's shape with spool on and interleaved stats reads: the second path, no engine",
		build:     buildIngest(ingestSpec{devices: 40000, batches: 2, records: 8, dupEvery: 20, statsEvery: 1000, warm: 50}),
		collector: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
