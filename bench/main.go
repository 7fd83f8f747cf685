// Command bench is the repository's one benchmark: six fixed-work
// workloads over the two paths a packet or a record really travels —
// app → TUN → engine → upstream → back, and phone → HTTPTransport →
// collector → spool → sketch. See README.md in this directory for the
// workload, metric and interaction tables.
//
// Usage, from the repository root:
//
//	go run -C bench . -workload relay_small -seed 1 -seconds 10 -trace 0
//	go run -C bench .                 # all six workloads, ledger on stdout
//	go run -C bench . -trace 1        # adds the per-layer pass
//	go run -C bench . -selfcheck      # two back-to-back sets vs the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print the one-line result; empty runs all six and prints the ledger")
		seed      = flag.Int64("seed", 1, "generates payload bytes, device ids and synthetic RTTs")
		seconds   = flag.Float64("seconds", 10, "work budget: operation counts scale linearly with it (10 = the sizes in README.md)")
		trace     = flag.Int("trace", 0, "1 adds the separate traced pass and layer replay and reports per-layer metrics instead")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
		outDir    = flag.String("out", "out", "directory for ledger and trace files, relative to the bench directory")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	cfg := config{
		seed:   *seed,
		scale:  *seconds / 10,
		trace:  *trace == 1,
		outDir: filepath.Join(dir, *outDir),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *selfcheck:
		spec, err := loadSpec(dir)
		if err != nil {
			fatal(err)
		}
		if err := runSelfcheck(cfg, spec); err != nil {
			fatal(err)
		}
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(cfg, w)
		if err != nil {
			fatal(err)
		}
		led := newLedger(cfg, *seconds, []*result{res})
		if err := led.write(filepath.Join(cfg.outDir, "ledger-"+w.name+".json")); err != nil {
			fatal(err)
		}
		led.table(os.Stderr)
		if err := json.NewEncoder(os.Stdout).Encode(res.contractLine()); err != nil {
			fatal(err)
		}
	default:
		var all []*result
		for _, w := range workloads {
			res, err := runWorkload(cfg, w)
			if err != nil {
				fatal(err)
			}
			all = append(all, res)
		}
		led := newLedger(cfg, *seconds, all)
		if err := led.write(filepath.Join(cfg.outDir, "ledger.json")); err != nil {
			fatal(err)
		}
		led.table(os.Stderr)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(led); err != nil {
			fatal(err)
		}
	}
}

// fatal prints no result: a run that fails a correctness check or
// cannot run exits non-zero without a ledger.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// benchDir finds this package's directory from the two places the
// program is started from: the directory itself (go run -C bench .) or
// the repository root (a prebuilt binary).
func benchDir() (string, error) {
	for _, d := range []string{".", "bench"} {
		b, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module repro/bench") {
			return d, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/")
}
