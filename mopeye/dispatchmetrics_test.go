package mopeye

import "testing"

// TestDispatchBenchMetricsArm floods with the observability registry
// armed and continuously scraped — the `paperbench -exp dispatch
// -metrics` arm — and asserts the flood is unaffected.
func TestDispatchBenchMetricsArm(t *testing.T) {
	o := DispatchBenchOptions{
		WorkerCounts:  []int{2},
		Apps:          2,
		ConnsPerApp:   2,
		EchoesPerConn: 5,
		PayloadBytes:  256,
		UDPPerConn:    2,
		Metrics:       true,
	}
	res, err := RunDispatchBench(o)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Errors != 0 {
		t.Fatalf("flood errors with metrics armed: %d", row.Errors)
	}
	if row.Packets == 0 || row.PacketsPerSec <= 0 {
		t.Fatalf("no packets relayed: %+v", row)
	}
}

// TestDefaultBenchOptions sanity-checks the canonical CLI presets.
func TestDefaultBenchOptions(t *testing.T) {
	d := DefaultDispatchBenchOptions()
	if len(d.WorkerCounts) == 0 || d.Apps <= 0 || d.ConnsPerApp <= 0 ||
		d.EchoesPerConn <= 0 || d.PayloadBytes <= 0 {
		t.Fatalf("dispatch preset not runnable: %+v", d)
	}
}
