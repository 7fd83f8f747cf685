package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// row is the one schema every ledger line shares.
type row struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit"`
	Value     float64 `json:"value"`
	Samples   int     `json:"samples"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

// result is one workload's outcome.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Rows      []row

	opName, latName string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the single-workload result the driver parses: the
// last line of standard output.
func (r *result) contractLine() map[string]any {
	m := make(map[string]metricValue, len(r.Rows))
	for _, x := range r.Rows {
		m[x.Metric] = metricValue{Value: x.Value, Unit: x.Unit}
	}
	return map[string]any{
		"correct":   true, // a run that fails a check never gets here
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   m,
	}
}

// host is the fingerprint ROADMAP item 1 asks every record to carry.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

// ledger is the machine-readable record of one invocation.
type ledger struct {
	Schema  string  `json:"schema"`
	Host    host    `json:"host"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	Load    string  `json:"load"`
	Rows    []row   `json:"rows"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`

	results []*result
}

const loadNote = "closed loop, one process, 2 driver goroutines, fixed operation count per run; " +
	"latencies are service times at concurrency 2, not under queueing; " +
	"traffic crosses the in-process netsim network (and, for collector_ingest, the host's loopback interface), never a real link"

func newLedger(cfg config, seconds float64, results []*result) *ledger {
	l := &ledger{
		Schema: "mopeye-bench-ledger/1",
		Host: host{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
			Commit:     gitCommit(),
			Seed:       cfg.seed,
		},
		Seconds: seconds,
		Trace:   cfg.trace,
		Load:    loadNote,
		results: results,
	}
	for _, r := range results {
		for _, x := range r.Rows {
			x.Workload, x.Attempted, x.Failed = r.Workload, r.Attempted, r.Failed
			l.Rows = append(l.Rows, x)
		}
	}
	return l
}

func (l *ledger) write(path string) error {
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// table is the human view, on stderr so stdout stays machine-readable.
func (l *ledger) table(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s commit=%s seed=%d seconds=%g trace=%v\n",
		l.Host.NProc, l.Host.GOMAXPROCS, l.Host.Go, l.Host.OSArch, l.Host.Commit, l.Host.Seed, l.Seconds, l.Trace)
	fmt.Fprintf(w, "load: %s\n", l.Load)
	for _, r := range l.results {
		fmt.Fprintf(w, "\n%s: attempted %d, failed %d\n  operation: %s\n  latency:   %s\n",
			r.Workload, r.Attempted, r.Failed, r.opName, r.latName)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, x := range r.Rows {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", x.Metric, x.Value, x.Unit, x.Samples)
		}
		tw.Flush()
	}
}

// gitCommit reads the checkout's HEAD without running git; a checkout
// that is not a repository (the benchmark driver's) reports "unknown".
func gitCommit() string {
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		ref, ok := strings.CutPrefix(s, "ref: ")
		if !ok {
			return s
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unknown"
}

// benchSpec is the part of BENCHMARK.json the program itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(benchDir string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runSelfcheck runs the full end-to-end set twice back to back and
// compares the two values of every metric × workload against the
// metric's bound — the acceptance test that two runs of the same code
// agree, and the procedure the bounds were calibrated with.
func runSelfcheck(cfg config, spec *benchSpec) error {
	cfg.trace = false
	var sets [2]map[string]float64
	for i := range sets {
		sets[i] = make(map[string]float64)
		for _, w := range workloads {
			res, err := runWorkload(cfg, w)
			if err != nil {
				return err
			}
			for _, x := range res.Rows {
				sets[i][w.name+"/"+x.Metric] = x.Value
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tfirst\tsecond\tworse by\tbound\t")
	over := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w.name+"/"+m.Name], sets[1][w.name+"/"+m.Name]
			// Positive when the second set reads worse than the first.
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if math.IsNaN(worse) || worse > m.Bound {
				mark = "OVER"
				over++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				w.name, m.Name, m.Unit, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	tw.Flush()
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same code", over)
	}
	return nil
}
