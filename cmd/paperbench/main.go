// Command paperbench runs the §4.1 evaluation experiments — measurement
// accuracy and relay overhead — and prints each table/figure in the
// paper's layout. Beyond the paper, -exp parallel sweeps the engine's
// worker counts under a multi-app packet flood (a workload the
// single-phone paper never exercises), -exp dispatch runs the same
// sweep over a zero-delay loopback network so the result is the engine
// ceiling rather than the simulated wire. The collector path has no
// experiment here: its one load harness is the collector_ingest
// workload of the benchmark (`go run -C bench . -workload
// collector_ingest`).
//
// The sweeps take one ablation knob: -readbatch sweeps burst sizes
// (explicit N pins, "auto" or 0 runs the AIMD governor).
// -cpuprofile/-memprofile write pprof profiles of whatever experiment
// runs, so ceiling hotspots are inspectable without editing code
// (workflow in EXPERIMENTS.md).
//
// -exp scenarios runs the scenario matrix: adverse network-condition
// profiles (-profiles) crossed with trace-driven fleet workloads
// (-workloads), each cell a mini-fleet with one planted adverse phone
// whose measurements are checked for truthfulness against the
// injected conditions. Any violation exits nonzero (the CI gate).
// -cell-ms and -cell-phones size the cells; -workers, when given,
// sweeps the engine worker count as a third axis.
//
// -exp ceiling compares the engine's device-read ceiling across data
// planes: with -tun sim (the default) it reruns the zero-delay netsim
// dispatch sweep; with -tun real it opens a kernel TUN device (build
// with -tags realtun, run as root), routes a TEST-NET-2 subnet into
// it, and floods it with kernel UDP while the engine drains it. The
// real arm skips cleanly — exit 0, with a reason — when the build,
// privileges or /dev/net/tun are missing, so it can sit in CI behind
// the privileged gate. It is not part of -exp all.
//
// Usage:
//
//	paperbench [-exp all|table1|table2|table3|table4|fig5|overhead|parallel|dispatch|scenarios|ceiling] [-fast] [-workers 1,2,4] [-readbatch auto,64] [-subs 0] [-metrics] [-profiles a,b] [-workloads web,video] [-cell-ms 2000] [-cell-phones 3] [-tun sim|real] [-tun-name pbench0] [-upstream direct|socks5://host:port] [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/tun/lintun"
	"repro/internal/upstream"
	"repro/mopeye"
)

// batchArm is one -readbatch sweep entry: a pinned burst size, or the
// AIMD governor (spelled "auto" or 0) with the engine-default ceiling.
type batchArm struct {
	n    int
	auto bool
}

// label renders the arm for table headers.
func (a batchArm) label() string {
	if a.auto {
		return "auto"
	}
	if a.n == 0 {
		return "default"
	}
	return strconv.Itoa(a.n)
}

// dataPlane is the parsed -tun/-tun-name/-upstream flag triple, shared
// with cmd/mopeye's semantics: the real plane unlocks the device name
// and upstream knobs, the sim plane rejects them.
type dataPlane struct {
	tun      string // "sim" or "real"
	tunName  string
	upstream string
}

// validate enforces the flag contract; it is the unit-testable core of
// the -tun/-upstream handling.
func (d dataPlane) validate() error {
	switch d.tun {
	case "sim", "real":
	default:
		return fmt.Errorf("bad -tun %q (want sim or real)", d.tun)
	}
	if d.tun == "sim" {
		if d.tunName != "" {
			return fmt.Errorf("-tun-name needs -tun real")
		}
		if d.upstream != "" {
			return fmt.Errorf("-upstream needs -tun real (the sim plane has no kernel exit)")
		}
		return nil
	}
	if _, err := upstream.ParseSpec(d.upstream); err != nil {
		return err
	}
	return nil
}

// parseWorkers turns "1,2,4" into a sweep list.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, table3, table4, fig5, overhead, parallel, dispatch, scenarios, ceiling")
	fast := flag.Bool("fast", false, "smaller workloads / shorter runs")
	workers := flag.String("workers", "1,2,4", "worker counts swept by -exp parallel/dispatch")
	readbatch := flag.String("readbatch", "64", "read/write burst sizes swept by -exp parallel/dispatch (comma list; explicit N pins it, 1 = batching off; 0 or auto = AIMD self-tuning)")
	subs := flag.Int("subs", 0, "live measurement subscribers attached during -exp dispatch (streaming-pipeline overhead)")
	metricsFlag := flag.Bool("metrics", false, "arm the phone observability registry during -exp dispatch and scrape it through the flood (the instrumentation-cost arm; compare against a run without it)")
	profiles := flag.String("profiles", "", "comma list of condition profiles for -exp scenarios (empty = all)")
	workloadsList := flag.String("workloads", "", "comma list of workload generators for -exp scenarios (empty = all)")
	cellMS := flag.Int("cell-ms", 0, "per-cell workload duration in ms for -exp scenarios (0 = default)")
	cellPhones := flag.Int("cell-phones", 0, "phones per scenario cell including the planted one (0 = default)")
	tunFlag := flag.String("tun", "sim", "data plane for -exp ceiling: sim (emulated netsim device) or real (kernel TUN; -tags realtun build, root)")
	tunName := flag.String("tun-name", "", "TUN device name for -tun real (empty lets the kernel pick)")
	upstreamFlag := flag.String("upstream", "", "upstream exit for -tun real: direct (default) or socks5://[user:pass@]host:port")
	ceilingMS := flag.Int("ceiling-ms", 3000, "flood duration in ms for the -exp ceiling real arm")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	plane := dataPlane{tun: *tunFlag, tunName: *tunName, upstream: *upstreamFlag}
	if err := plane.validate(); err != nil {
		log.Fatal(err)
	}

	workersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})

	// parseBatches turns "-readbatch 1,64,auto" into sweep arms ("auto"
	// and 0 select the AIMD governor; explicit N pins the burst size).
	parseBatches := func() []batchArm {
		var out []batchArm
		for _, part := range strings.Split(*readbatch, ",") {
			part = strings.TrimSpace(part)
			if part == "auto" || part == "0" {
				out = append(out, batchArm{auto: true})
				continue
			}
			n, err := strconv.Atoi(part)
			if err != nil || n < 0 {
				log.Fatalf("bad read batch %q (want N or auto)", part)
			}
			out = append(out, batchArm{n: n})
		}
		return out
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // surface live allocations, not GC timing noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	run := func(name string) {
		switch name {
		case "table1":
			o := mopeye.DefaultTable1Options()
			if *fast {
				o.Pages = 6
			}
			res, err := mopeye.RunTable1(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 1 — delay of writing packets to the VPN tunnel:")
			fmt.Println(res)
		case "table2":
			o := mopeye.DefaultTable2Options()
			if *fast {
				o.RunsPerDest = 1
			}
			rows, err := mopeye.RunTable2(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 2 — measurement accuracy of MopEye and MobiPerf (ms):")
			fmt.Println(mopeye.RenderTable2(rows))
		case "table3":
			o := mopeye.DefaultTable3Options()
			if *fast {
				o.Duration = time.Second
			}
			res, err := mopeye.RunTable3(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 3 — download and upload throughput overhead (Mbps):")
			fmt.Println(res)
		case "table4":
			o := mopeye.DefaultTable4Options()
			if *fast {
				o.Duration = 1500 * time.Millisecond
			}
			res, err := mopeye.RunTable4(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 4 — resource overhead during a streamed video:")
			fmt.Println(res)
		case "overhead":
			o := mopeye.DefaultLatencyOverheadOptions()
			if *fast {
				o.Rounds = 12
			}
			res, err := mopeye.RunLatencyOverhead(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res)
		case "fig5":
			o := mopeye.DefaultFig5Options()
			if *fast {
				o.Pages = 10
			}
			res, err := mopeye.RunFig5(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res)
		case "parallel":
			o := mopeye.DefaultParallelBenchOptions()
			sweep, err := parseWorkers(*workers)
			if err != nil {
				log.Fatal(err)
			}
			o.WorkerCounts = sweep
			if *fast {
				o.EchoesPerConn = 10
			}
			for _, rb := range parseBatches() {
				o.ReadBatch, o.ReadBatchAuto = rb.n, rb.auto
				res, err := mopeye.RunParallelBench(o)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("Engine scaling — multi-app flood across worker counts (readbatch=%s):\n", rb.label())
				fmt.Println(res)
			}
		case "dispatch":
			o := mopeye.DefaultDispatchBenchOptions()
			sweep, err := parseWorkers(*workers)
			if err != nil {
				log.Fatal(err)
			}
			o.WorkerCounts = sweep
			o.Subscribers = *subs
			o.Metrics = *metricsFlag
			if *fast {
				o.EchoesPerConn = 15
				o.UDPPerConn = 5
			}
			for _, rb := range parseBatches() {
				o.ReadBatch, o.ReadBatchAuto = rb.n, rb.auto
				res, err := mopeye.RunDispatchBench(o)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("Engine ceiling — zero-delay loopback flood across worker counts (readbatch=%s, subscribers=%d, metrics=%v):\n",
					rb.label(), *subs, *metricsFlag)
				fmt.Println(res)
			}
		case "scenarios":
			o := mopeye.ScenarioMatrixOptions{
				PhonesPerCell: *cellPhones,
				CellDuration:  time.Duration(*cellMS) * time.Millisecond,
				Seed:          1,
			}
			if *profiles != "" {
				o.Profiles = splitList(*profiles)
			}
			if *workloadsList != "" {
				o.Workloads = splitList(*workloadsList)
			}
			// Fast mode shrinks the matrix, not the cell duration: the
			// slow-paced workloads (chat/sync/video) need the full cell to
			// accumulate the minimum samples the truthfulness checks
			// demand, so cutting time would manufacture violations. The
			// web workload alone still exercises every profile.
			if *fast && *workloadsList == "" {
				o.Workloads = []string{"web"}
			}
			// -workers sweeps the engine worker count as a third matrix
			// axis when given explicitly; the default sweep is for the
			// scaling experiments, so scenarios only honour it when set.
			sweep := []int{0}
			if workersSet {
				s, err := parseWorkers(*workers)
				if err != nil {
					log.Fatal(err)
				}
				sweep = s
			}
			violations := 0
			for _, w := range sweep {
				o.Workers = w
				res, err := mopeye.RunScenarioMatrix(context.Background(), o)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("Scenario matrix — condition profiles x workloads, truthfulness-checked (workers=%s):\n", workersLabel(w))
				fmt.Println(res)
				for _, f := range res.Failures() {
					fmt.Println("VIOLATION:", f)
					violations++
				}
			}
			if violations > 0 {
				log.Fatalf("scenario matrix: %d truthfulness violations", violations)
			}
		case "ceiling":
			// The netsim arm always runs: it is the baseline the real
			// arm is compared against.
			o := mopeye.DefaultDispatchBenchOptions()
			sweep, err := parseWorkers(*workers)
			if err != nil {
				log.Fatal(err)
			}
			o.WorkerCounts = sweep
			if *fast {
				o.EchoesPerConn = 15
				o.UDPPerConn = 5
			}
			res, err := mopeye.RunDispatchBench(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ceiling, netsim arm — zero-delay emulated device across worker counts:")
			fmt.Println(res)
			if plane.tun != "real" {
				fmt.Println("Ceiling, real arm — skipped: run with -tun real (requires a -tags realtun build and root).")
				break
			}
			for _, rb := range parseBatches() {
				for _, w := range sweep {
					runRealCeiling(mopeye.RealCeilingOptions{
						TunName:       plane.tunName,
						Upstream:      plane.upstream,
						Workers:       w,
						ReadBatch:     rb.n,
						ReadBatchAuto: rb.auto,
						Duration:      time.Duration(*ceilingMS) * time.Millisecond,
					}, rb.label())
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "table2", "table3", "table4", "fig5", "overhead", "parallel", "dispatch", "scenarios"} {
			run(name)
		}
		return
	}
	run(*exp)
}

// realCeilingSubnet is the TEST-NET-2 range the real ceiling arm
// routes into its TUN device — deliberately disjoint from netsim's
// TEST-NET-1 (192.0.2.0/24) so a host that also runs the simulated
// experiments never sees a route collision.
const realCeilingSubnet = "198.51.100.1/24"

// runRealCeiling runs one real-TUN ceiling arm, skipping cleanly (exit
// 0, with the reason) when the build, privileges or /dev/net/tun are
// missing. Interface setup execs `ip`, so this stays linux-and-root
// territory by construction.
func runRealCeiling(o mopeye.RealCeilingOptions, batchLabel string) {
	if os.Geteuid() != 0 {
		fmt.Println("Ceiling, real arm — skipped: needs root (or CAP_NET_ADMIN) to open and address a TUN device.")
		return
	}
	o.Setup = func(dev string) error {
		for _, args := range [][]string{
			{"addr", "add", realCeilingSubnet, "dev", dev},
			{"link", "set", "dev", dev, "up"},
		} {
			cmd := exec.Command("ip", args...)
			if out, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("ip %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
			}
		}
		return nil
	}
	res, err := mopeye.RunRealCeiling(o)
	if err != nil {
		if errors.Is(err, lintun.ErrUnsupported) {
			fmt.Println("Ceiling, real arm — skipped: this build has no kernel TUN backend (rebuild with -tags realtun on linux).")
			return
		}
		if errors.Is(err, os.ErrNotExist) || errors.Is(err, os.ErrPermission) {
			fmt.Printf("Ceiling, real arm — skipped: /dev/net/tun unavailable (%v).\n", err)
			return
		}
		log.Fatal(err)
	}
	fmt.Printf("Ceiling, real arm (workers=%s, readbatch=%s):\n", workersLabel(o.Workers), batchLabel)
	fmt.Println(res)
}

// splitList parses a comma-separated name list.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// workersLabel renders a scenario worker-count arm (0 = engine default).
func workersLabel(w int) string {
	if w == 0 {
		return "default"
	}
	return strconv.Itoa(w)
}
