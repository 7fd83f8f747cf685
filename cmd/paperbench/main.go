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
// profiles (-profiles) crossed with trace-driven workloads
// (-workloads), each cell a few clean phones and one planted adverse
// phone whose measurements are checked for truthfulness against the
// injected conditions. Any violation exits nonzero (the CI gate).
// -cell-ms and -cell-phones size the cells.
//
// Usage:
//
//	paperbench [-exp all|table1|table2|table3|table4|fig5|overhead|scenarios] [-fast] [-profiles a,b] [-workloads web,video] [-cell-ms 2000] [-cell-phones 3] [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, table3, table4, fig5, overhead, scenarios")
	fast := flag.Bool("fast", false, "smaller workloads / shorter runs")
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
			o := experiments.DefaultTable1Options()
			if *fast {
				o.Pages = 6
			}
			res, err := experiments.RunTable1(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 1 — delay of writing packets to the VPN tunnel:")
			fmt.Println(res)
		case "table2":
			o := experiments.DefaultTable2Options()
			if *fast {
				o.RunsPerDest = 1
			}
			rows, err := experiments.RunTable2(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 2 — measurement accuracy of MopEye and MobiPerf (ms):")
			fmt.Println(experiments.RenderTable2(rows))
		case "table3":
			o := experiments.DefaultTable3Options()
			if *fast {
				o.Duration = time.Second
			}
			res, err := experiments.RunTable3(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 3 — download and upload throughput overhead (Mbps):")
			fmt.Println(res)
		case "table4":
			o := experiments.DefaultTable4Options()
			if *fast {
				o.Duration = 1500 * time.Millisecond
			}
			res, err := experiments.RunTable4(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Table 4 — resource overhead during a streamed video:")
			fmt.Println(res)
		case "overhead":
			o := experiments.DefaultLatencyOverheadOptions()
			if *fast {
				o.Rounds = 12
			}
			res, err := experiments.RunLatencyOverhead(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res)
		case "fig5":
			o := experiments.DefaultFig5Options()
			if *fast {
				o.Pages = 10
			}
			res, err := experiments.RunFig5(o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res)
		case "scenarios":
			o := experiments.ScenarioMatrixOptions{
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
			res, err := experiments.RunScenarioMatrix(context.Background(), o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Scenario matrix — condition profiles x workloads, truthfulness-checked:")
			fmt.Println(res)
			violations := res.Failures()
			for _, f := range violations {
				fmt.Println("VIOLATION:", f)
			}
			if len(violations) > 0 {
				log.Fatalf("scenario matrix: %d truthfulness violations", len(violations))
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
