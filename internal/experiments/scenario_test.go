package experiments

import (
	"context"
	"testing"
	"time"
)

// TestScenarioMatrixTruthfulness runs a representative slice of the
// matrix — a clean baseline, a slow-cell ranking case, the mid-run
// handover, and the DNS blackhole — and requires every truthfulness
// invariant to hold: medians inside the injected envelopes, exact
// datagram accounting, app attribution, and the planted slow network
// ranked slowest by the §4.2 crowd analysis.
func TestScenarioMatrixTruthfulness(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario cells run seconds of real traffic")
	}
	res, err := RunScenarioMatrix(context.Background(), ScenarioMatrixOptions{
		Profiles:  []string{"clean-wifi", "lossy-cellular", "handover", "dns-blackhole"},
		Workloads: []string{"web"},
		Seed:      11,
	})
	if err != nil {
		t.Fatalf("RunScenarioMatrix: %v", err)
	}
	if got, want := len(res.Cells), 4; got != want {
		t.Fatalf("matrix has %d cells, want %d", got, want)
	}
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("truthfulness violations:\n%s\n\nfull matrix:\n%s",
			joinLines(fails), res.String())
	}

	byProfile := map[string]ScenarioCell{}
	for _, c := range res.Cells {
		byProfile[c.Profile] = c
	}

	// The ranking cells must actually have ranked (not silently
	// skipped) and put the planted ISP last.
	for _, p := range []string{"lossy-cellular", "handover"} {
		c := byProfile[p]
		if !c.Ranked || !c.RankedSlowest {
			t.Errorf("%s: Ranked=%v RankedSlowest=%v, want true/true", p, c.Ranked, c.RankedSlowest)
		}
	}

	// The handover cell must show the mid-run degradation: its median
	// sits above the clean baseline's (established flows felt the
	// SetLink), while clean stays near its 20 ms RTT.
	clean, hand := byProfile["clean-wifi"], byProfile["handover"]
	if hand.TCPMedianMS <= clean.TCPMedianMS {
		t.Errorf("handover median %.1fms not above clean %.1fms", hand.TCPMedianMS, clean.TCPMedianMS)
	}

	// The blackhole cell is the pool-starvation regime: no DNS
	// measurement can exist, timeouts must be counted, and TCP to the
	// literal site must have kept flowing.
	bh := byProfile["dns-blackhole"]
	if bh.DNSSamples != 0 {
		t.Errorf("blackhole cell has %d DNS samples, want 0", bh.DNSSamples)
	}
	if bh.TCPSamples == 0 {
		t.Error("blackhole cell has no TCP samples: TCP did not survive the dead resolver")
	}
	if bh.DatagramsSent == 0 || bh.DatagramsSent != bh.DatagramsAccounted {
		t.Errorf("blackhole accounting: sent %d, accounted %d", bh.DatagramsSent, bh.DatagramsAccounted)
	}
}

// TestScenarioMatrixRejectsUnknownNames pins the option validation.
func TestScenarioMatrixRejectsUnknownNames(t *testing.T) {
	if _, err := RunScenarioMatrix(context.Background(), ScenarioMatrixOptions{Profiles: []string{"carrier-pigeon"}}); err == nil {
		t.Fatal("accepted unknown profile")
	}
	if _, err := RunScenarioMatrix(context.Background(), ScenarioMatrixOptions{Workloads: []string{"doomscroll"}}); err == nil {
		t.Fatal("accepted unknown workload")
	}
	if _, err := RunScenarioMatrix(context.Background(), ScenarioMatrixOptions{PhonesPerCell: 1}); err == nil {
		t.Fatal("accepted a cell without a clean baseline")
	}
}

// TestScenarioDNSFlakyEnvelope runs the flaky-resolver cell alone: the
// DNS median must track the injected resolver path (not the healthy
// TCP path), and the ranking metric for the cell is DNS.
func TestScenarioDNSFlakyEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario cells run seconds of real traffic")
	}
	res, err := RunScenarioMatrix(context.Background(), ScenarioMatrixOptions{
		Profiles:     []string{"dns-flaky"},
		Workloads:    []string{"web"},
		CellDuration: 2500 * time.Millisecond,
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("RunScenarioMatrix: %v", err)
	}
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("truthfulness violations:\n%s\n\nfull matrix:\n%s", joinLines(fails), res.String())
	}
	c := res.Cells[0]
	if c.DNSSamples < 2 {
		t.Fatalf("flaky cell has %d DNS samples, want >= 2", c.DNSSamples)
	}
	if c.DNSMedianMS <= c.TCPMedianMS {
		t.Errorf("DNS median %.1fms should exceed the healthy TCP median %.1fms under a slow resolver",
			c.DNSMedianMS, c.TCPMedianMS)
	}
	if !c.Ranked || !c.RankedSlowest {
		t.Errorf("Ranked=%v RankedSlowest=%v, want true/true", c.Ranked, c.RankedSlowest)
	}
}

func joinLines(ss []string) string {
	out := ""
	for _, s := range ss {
		out += "  " + s + "\n"
	}
	return out
}
