package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// table1Totals projects the deterministic columns out of a Table 1 run:
// the Total row. The delay buckets are real-time measurements and move
// with host load, but the totals are packet counts fixed by the
// workload — every request, response segment, ACK, and FIN the relay
// emits is the same no matter how the engine core is shaped.
func table1Totals(r *Table1Result) string {
	return fmt.Sprintf("directWrite=%d queueWrite=%d oldPut=%d newPut=%d",
		r.DirectWrite.Total, r.QueueWrite.Total, r.OldPut.Total, r.NewPut.Total)
}

// TestGoldenTable1DeterministicAcrossWorkers is the golden determinism
// guard: the full Table 1 ablation scenario (three engine runs across
// the write schemes, browsing workload, Android write-cost model) run
// at Workers=1 (the paper's single MainWorker) and at Workers=4 (the
// same per-packet reader routing over four rings) must produce
// byte-identical deterministic columns — and both must equal
// testdata/table1_totals.golden, captured at Workers=1 from the commit
// before the engine cores were unified (e8de0ad), so a refactor cannot
// drift both arms together unnoticed. Any dispatch or queue
// change that drops, duplicates, or reorders per-flow packets shifts
// these totals and fails here.
func TestGoldenTable1DeterministicAcrossWorkers(t *testing.T) {
	golden, err := os.ReadFile("testdata/table1_totals.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	for _, workers := range []int{1, 4} {
		o := DefaultTable1Options()
		o.Pages = 4
		o.ConnsPerPage = 6
		o.Workers = workers
		res, err := RunTable1(o)
		if err != nil {
			t.Fatalf("table1 at workers=%d: %v", workers, err)
		}
		if got := table1Totals(res); got != want {
			t.Errorf("Table 1 deterministic columns at workers=%d drifted from the golden capture:\n got:  %s\n want: %s",
				workers, got, want)
		}
	}
}
