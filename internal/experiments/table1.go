package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/tun"
)

// Table1Result holds the four delay histograms of Table 1: tunnel-write
// delay under directWrite and queueWrite, and enqueue delay under the
// oldPut and newPut algorithms (§3.5.1).
type Table1Result struct {
	DirectWrite stats.DelayHistogram
	QueueWrite  stats.DelayHistogram
	OldPut      stats.DelayHistogram
	NewPut      stats.DelayHistogram
}

// Table1Options sizes the workload.
type Table1Options struct {
	Pages        int
	ConnsPerPage int
	Seed         int64
	// Workers selects the engine core: 0/1 is the paper-faithful
	// MainWorker every recorded ablation uses; N > 1 runs the browsing
	// workload through the sharded pipeline. The deterministic
	// Table 1 columns (the Total row — packet counts, not delays) must
	// not change with the worker count; the golden determinism test
	// pins that, guarding every dispatch/queue refactor.
	Workers int
}

// DefaultTable1Options mirrors a browsing session long enough for the
// tails to populate.
func DefaultTable1Options() Table1Options {
	return Table1Options{Pages: 12, ConnsPerPage: 8, Seed: 1}
}

// RunTable1 measures the four writing schemes under a browsing
// workload. Three engine runs: directWrite; queueWrite+oldPut (yielding
// both the queueWrite write histogram and the oldPut put histogram);
// queueWrite+newPut.
func RunTable1(o Table1Options) (*Table1Result, error) {
	res := &Table1Result{}

	run := func(scheme engine.WriteScheme, seed int64) (engine.Stats, error) {
		cfg := engine.Default()
		cfg.WriteScheme = scheme
		cfg.Seed = seed
		if o.Workers > 1 {
			cfg.Workers = o.Workers
		}
		bed, err := testbed.New(testbed.Options{
			Engine:       &cfg,
			Link:         netsim.LinkParams{Delay: 10 * time.Millisecond},
			Servers:      []netsim.ServerSpec{testbed.ChattyServer("site.example", "203.0.113.10:80", 20*time.Millisecond)},
			TunWriteCost: tun.AndroidWriteCost(),
			Seed:         seed,
		})
		if err != nil {
			return engine.Stats{}, err
		}
		defer bed.Close()
		bed.InstallApp(uidBrowser, "com.android.chrome")
		server := netip.MustParseAddrPort("203.0.113.10:80")
		if _, fails := browse(bed, o.Pages, o.ConnsPerPage, "site.example", server); fails > o.Pages*o.ConnsPerPage/4 {
			return engine.Stats{}, fmt.Errorf("table1: %d connect failures", fails)
		}
		// Let in-flight teardown writes land before reading counters:
		// wait until every client is torn down and the write counter has
		// been stable across several samples (a fixed sleep undercounts
		// on a loaded host, and a single stable sample can straddle one
		// AndroidWriteCost spike of up to ~23 ms — either would make the
		// totals nondeterministic).
		deadline := time.Now().Add(3 * time.Second)
		last, stable := -1, 0
		for time.Now().Before(deadline) {
			st := bed.Eng.Stats()
			if bed.Eng.ActiveClients() == 0 && st.PacketsToTun == last {
				if stable++; stable >= 3 { // ~75 ms quiet, past any write stall
					break
				}
			} else {
				stable = 0
			}
			last = st.PacketsToTun
			time.Sleep(25 * time.Millisecond)
		}
		return bed.Eng.Stats(), nil
	}

	st, err := run(engine.DirectWrite, o.Seed)
	if err != nil {
		return nil, err
	}
	res.DirectWrite = st.WriteHist

	st, err = run(engine.QueueWriteOldPut, o.Seed+1)
	if err != nil {
		return nil, err
	}
	res.QueueWrite = st.WriteHist
	res.OldPut = st.PutHist

	st, err = run(engine.QueueWriteNewPut, o.Seed+2)
	if err != nil {
		return nil, err
	}
	res.NewPut = st.PutHist

	return res, nil
}

// String renders the result in the layout of Table 1.
func (r *Table1Result) String() string {
	header := []string{"", "directWrite", "queueWrite", "oldPut", "newPut"}
	labels := append([]string{"Total"}, stats.BucketLabels[:]...)
	cols := [][]string{
		histColumn(r.DirectWrite),
		histColumn(r.QueueWrite),
		histColumn(r.OldPut),
		histColumn(r.NewPut),
	}
	rows := make([][]string, len(labels))
	for i, label := range labels {
		row := []string{label}
		for _, col := range cols {
			row = append(row, col[i])
		}
		rows[i] = row
	}
	out := renderTable(header, rows)
	out += fmt.Sprintf("large(>1ms) fraction: direct %.2f%%, queue %.2f%%, oldPut %.2f%%, newPut %.3f%%\n",
		r.DirectWrite.LargeFraction()*100, r.QueueWrite.LargeFraction()*100,
		r.OldPut.LargeFraction()*100, r.NewPut.LargeFraction()*100)
	return out
}
