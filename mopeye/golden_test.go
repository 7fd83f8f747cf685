package mopeye

import (
	"context"
	"fmt"
	"os"
	"sort"
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

// measurementTotals projects the deterministic columns out of a
// measurement set: per-(kind, app, dst) record counts. RTT values move
// with host scheduling, but which connections were measured and
// attributed to whom is fixed by the workload, whatever the engine
// core shape and whichever view — snapshot or stream — reported them.
func measurementTotals(recs []Measurement) string {
	counts := make(map[string]int)
	for _, r := range recs {
		counts[fmt.Sprintf("%s %s %s", r.Kind, r.App, r.Dst)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, counts[k])
	}
	return b.String()
}

// TestGoldenStreamMatchesSnapshot is the streaming half of the golden
// determinism guard: a fixed workload run at Workers=1 (the
// paper-faithful MainWorker) and Workers=4 (the sharded pipeline)
// must produce identical measurement totals, and within each
// run the drained Subscribe stream must be record-for-record identical
// to the Measurements() snapshot — the push pipeline may never drop,
// duplicate, or reorder what the pull view reports.
func TestGoldenStreamMatchesSnapshot(t *testing.T) {
	run := func(workers int) string {
		t.Helper()
		p, err := New(Options{
			Servers: []Server{
				{Domain: "golden-a.example", RTTMillis: 8},
				{Domain: "golden-b.example", RTTMillis: 16, Behaviour: Chatty},
			},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.InstallApp(10001, "golden.app.one")
		p.InstallApp(10002, "golden.app.two")

		// Subscribe registers synchronously: the tap observes every
		// measurement the workload below produces.
		tap := p.Subscribe(context.Background(), Filter{})
		streamed := make(chan []Measurement, 1)
		go func() {
			var got []Measurement
			for m := range tap {
				got = append(got, m)
			}
			streamed <- got
		}()

		for i := 0; i < 4; i++ {
			for uid, dst := range map[int]string{10001: "golden-a.example:443", 10002: "golden-b.example:443"} {
				conn, err := p.Connect(uid, dst)
				if err != nil {
					t.Fatal(err)
				}
				conn.Close()
			}
		}
		// Close waits for the socket-connect threads, so every record is
		// in: 8 TCP plus one DNS per connect's resolution.
		p.Close()
		snap := p.Measurements()
		stream := <-streamed

		if len(snap) != 16 {
			t.Fatalf("workers=%d: %d records after Close, want 16:\n%s",
				workers, len(snap), measurementTotals(snap))
		}
		if len(stream) != len(snap) {
			t.Fatalf("workers=%d: streamed %d records, snapshot has %d",
				workers, len(stream), len(snap))
		}
		for i := range snap {
			if stream[i] != snap[i] {
				t.Fatalf("workers=%d record %d:\n stream   %+v\n snapshot %+v",
					workers, i, stream[i], snap[i])
			}
		}
		if d := p.StreamDrops(); d != 0 {
			t.Fatalf("workers=%d: stream dropped %d records", workers, d)
		}
		return measurementTotals(snap)
	}

	single := run(1)
	sharded := run(4)
	if single != sharded {
		t.Errorf("measurement totals diverge across engine cores:\nworkers=1:\n%sworkers=4:\n%s",
			single, sharded)
	}
	if again := run(1); again != single {
		t.Errorf("measurement totals not reproducible at workers=1:\n first:\n%s second:\n%s",
			single, again)
	}
}
