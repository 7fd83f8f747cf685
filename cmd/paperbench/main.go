// Command paperbench runs the §4.1 evaluation experiments — measurement
// accuracy and relay overhead — and prints each table/figure in the
// paper's layout. Load and throughput have no experiment here: the one
// load harness for the engine and collector paths is the benchmark
// (`go run -C bench .`).
//
// -cpuprofile/-memprofile write pprof profiles of whatever experiment
// runs (workflow in EXPERIMENTS.md).
//
// -exp scenarios runs the scenario matrix: adverse network-condition
// profiles (-profiles) crossed with trace-driven fleet workloads
// (-workloads), each cell a mini-fleet with one planted adverse phone
// whose measurements are checked for truthfulness against the
// injected conditions. Any violation exits nonzero (the CI gate).
// -cell-ms and -cell-phones size the cells; -workers, when given,
// sweeps the engine worker count as a third axis.
//
// Usage:
//
//	paperbench [-exp all|table1|table2|table3|table4|fig5|overhead|scenarios] [-fast] [-workers 1,4] [-profiles a,b] [-workloads web,video] [-cell-ms 2000] [-cell-phones 3] [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/mopeye"
)

// parseWorkers turns "1,2,4" into a sweep list; empty means one arm at
// the engine default (0).
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		return []int{0}, nil
	}
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
	exp := flag.String("exp", "all", "experiment: all, table1, table2, table3, table4, fig5, overhead, scenarios")
	fast := flag.Bool("fast", false, "smaller workloads / shorter runs")
	workers := flag.String("workers", "", "comma list of engine worker counts swept by -exp scenarios (empty = engine default)")
	profiles := flag.String("profiles", "", "comma list of condition profiles for -exp scenarios (empty = all)")
	workloadsList := flag.String("workloads", "", "comma list of workload generators for -exp scenarios (empty = all)")
	cellMS := flag.Int("cell-ms", 0, "per-cell workload duration in ms for -exp scenarios (0 = default)")
	cellPhones := flag.Int("cell-phones", 0, "phones per scenario cell including the planted one (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

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
			// axis.
			sweep, err := parseWorkers(*workers)
			if err != nil {
				log.Fatal(err)
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
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "table2", "table3", "table4", "fig5", "overhead", "scenarios"} {
			run(name)
		}
		return
	}
	run(*exp)
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
