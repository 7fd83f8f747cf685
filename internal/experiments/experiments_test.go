package experiments

import (
	"testing"
	"time"

	"repro/internal/phonestack"
)

// These tests run the paper's evaluation experiments at reduced scale
// and assert the *shape* of each result — who wins and by roughly what
// factor — which is the reproduction criterion for Tables 1–4 and
// Figure 5.

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	o := DefaultTable1Options()
	o.Pages = 8
	res, err := RunTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.DirectWrite.Total == 0 || res.QueueWrite.Total == 0 ||
		res.OldPut.Total == 0 || res.NewPut.Total == 0 {
		t.Fatal("empty histogram")
	}
	// newPut must crush the >1ms enqueue tail relative to oldPut
	// (paper: 5.69% -> 0.075%).
	if res.NewPut.LargeFraction() >= res.OldPut.LargeFraction() {
		t.Errorf("newPut large fraction %.4f not below oldPut %.4f",
			res.NewPut.LargeFraction(), res.OldPut.LargeFraction())
	}
	// Enqueue (newPut) must beat direct tunnel writes.
	if res.NewPut.LargeFraction() >= res.DirectWrite.LargeFraction() {
		t.Errorf("newPut %.4f not below directWrite %.4f",
			res.NewPut.LargeFraction(), res.DirectWrite.LargeFraction())
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	o := DefaultTable2Options()
	o.RunsPerDest = 1
	o.ProbesPerRun = 8
	rows, err := RunTable2(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderTable2(rows))
	for _, r := range rows {
		// MopEye within ~1.5 ms of tcpdump (paper: at most 1 ms).
		if r.DeltaMopEye > 1.5 {
			t.Errorf("%s: MopEye deviation %.2f ms too large", r.Name, r.DeltaMopEye)
		}
		// MobiPerf biased upward by 10+ ms (paper: 12–79 ms).
		if r.DeltaMobiPerf < 8 {
			t.Errorf("%s: MobiPerf deviation %.2f ms implausibly small", r.Name, r.DeltaMobiPerf)
		}
		if r.MobiPerf < r.TcpdumpMobi {
			t.Errorf("%s: MobiPerf underestimated (%.1f < %.1f)", r.Name, r.MobiPerf, r.TcpdumpMobi)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	o := DefaultTable3Options()
	o.Duration = time.Second
	res, err := RunTable3(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	// Baseline near the line rate.
	if res.BaselineDown < 15 || res.BaselineUp < 15 {
		t.Errorf("baseline %.1f/%.1f Mbps, link is 25", res.BaselineDown, res.BaselineUp)
	}
	// MopEye within ~15%% of baseline both ways (paper: <1 Mbps of 25).
	if res.MopEyeDown < res.BaselineDown*0.8 {
		t.Errorf("MopEye download %.1f below 80%% of baseline %.1f", res.MopEyeDown, res.BaselineDown)
	}
	if res.MopEyeUp < res.BaselineUp*0.8 {
		t.Errorf("MopEye upload %.1f below 80%% of baseline %.1f", res.MopEyeUp, res.BaselineUp)
	}
	// Haystack collapses, worst on upload (paper: 6.79 vs 25.97).
	if res.HaystackUp > res.MopEyeUp*0.8 {
		t.Errorf("Haystack upload %.1f not clearly below MopEye %.1f", res.HaystackUp, res.MopEyeUp)
	}
	// Downstream both relays run at the line rate, and two artefacts of
	// the drain can put Haystack ahead without it being faster. Its
	// polled loop sends the app's SYN-ACK at its next tick, when the
	// server is already streaming, so up to one receive window sits at
	// the phone before the drain's clock starts (its first read returns
	// 48 KiB where MopEye's returns 16 KiB). And the count moves in the
	// server's 16 KiB writes, one of which can land either side of the
	// deadline. A lead beyond those two is a real inversion.
	slack := mbps(phonestack.DefaultWindow+16<<10, o.Duration)
	if res.HaystackDown > res.MopEyeDown+slack {
		t.Errorf("Haystack download %.1f above MopEye %.1f", res.HaystackDown, res.MopEyeDown)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	o := DefaultTable4Options()
	o.Duration = 1500 * time.Millisecond
	res, err := RunTable4(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	// Haystack burns clearly more CPU (paper: 9.56% vs 2.74%).
	if res.Haystack.CPUPercent < 1.5*res.MopEye.CPUPercent {
		t.Errorf("Haystack CPU %.2f%% not well above MopEye %.2f%%",
			res.Haystack.CPUPercent, res.MopEye.CPUPercent)
	}
	// MopEye CPU stays modest (paper: 2.74%).
	if res.MopEye.CPUPercent > 6 {
		t.Errorf("MopEye CPU %.2f%% too high", res.MopEye.CPUPercent)
	}
	// Memory: 12 MB vs 148 MB scale.
	if res.Haystack.MemoryMB < 5*res.MopEye.MemoryMB {
		t.Errorf("memory ratio off: %.0f vs %.0f", res.MopEye.MemoryMB, res.Haystack.MemoryMB)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	o := DefaultFig5Options()
	o.Pages = 10
	res, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	// Figure 5(a): most eager mappings cost >5 ms.
	if f := 1 - res.EagerCDF.At(5); f < 0.5 {
		t.Errorf("eager >5ms fraction %.2f, paper reports >0.75", f)
	}
	// Figure 5(b): lazy mapping avoids a large share of parses
	// (paper: 67.8%).
	if rate := res.Lazy.MitigationRate(); rate < 0.4 {
		t.Errorf("mitigation rate %.2f, paper reports 0.678", rate)
	}
	// The lazy CDF must sit far left of the eager CDF at 1 ms.
	if res.LazyCDF.At(1) < res.EagerCDF.At(1) {
		t.Error("lazy mapping CDF not left of eager CDF")
	}
	// Correct attribution throughout: no misses.
	if res.Lazy.Misses > res.Lazy.Resolutions/10 {
		t.Errorf("%d/%d lazy resolutions missed", res.Lazy.Misses, res.Lazy.Resolutions)
	}
}

func TestLatencyOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	o := DefaultLatencyOverheadOptions()
	o.Rounds = 15
	res, err := RunLatencyOverhead(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	// The relay adds a small positive delay to connection establishment
	// (paper: 3.26–4.27 ms) and to data rounds (1.22–2.18 ms) — small
	// against the 76 ms median LTE RTT.
	if d := res.ConnectOverheadMS(); d < 0 || d > 15 {
		t.Errorf("connect overhead %.2f ms outside plausible band", d)
	}
	if d := res.DataOverheadMS(); d < -1 || d > 15 {
		t.Errorf("data overhead %.2f ms outside plausible band", d)
	}
	// Sanity: both conditions track the 20 ms path RTT.
	if res.ConnectDirectMean < 19 || res.ConnectRelayMean < 19 {
		t.Errorf("means below path RTT: %.2f / %.2f", res.ConnectDirectMean, res.ConnectRelayMean)
	}
}
