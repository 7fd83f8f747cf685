package crowd

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/measure"
)

// testDS is the dataset the analysis tests share, generated on first
// use so that a run of other tests never builds it; analyses are
// read-only.
var testDS = sync.OnceValue(func() *Dataset { return Generate(Config{Scale: 0.05, Seed: 42}) })

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: got %.2f, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/want > relTol {
		t.Errorf("%s: got %.2f, want %.2f (±%.0f%%)", name, got, want, relTol*100)
	}
}

func TestDatasetScaleAndSplit(t *testing.T) {
	wantTotal := float64(PaperTotalMeasurements) * 0.05
	within(t, "total records", float64(len(testDS().Records)), wantTotal, 0.01)
	tcp, dns := len(testDS().TCP()), len(testDS().DNS())
	within(t, "TCP share", float64(tcp)/float64(len(testDS().Records)),
		float64(PaperTCPMeasurements)/float64(PaperTotalMeasurements), 0.02)
	if tcp+dns != len(testDS().Records) {
		t.Error("kind split does not partition the dataset")
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Scale: 0.01, Seed: 7})
	b := Generate(Config{Scale: 0.01, Seed: 7})
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestDevicePopulation(t *testing.T) {
	within(t, "devices", float64(len(testDS().Devices)), PaperDevices*0.05, 0.05)
	countries := make(map[string]bool)
	for _, d := range testDS().Devices {
		countries[d.Country] = true
		if d.CellISP == "" {
			t.Fatalf("device %s without cellular ISP", d.ID)
		}
		if len(d.Locations) == 0 {
			t.Fatalf("device %s without locations", d.ID)
		}
	}
	if len(countries) < 20 {
		t.Errorf("only %d countries", len(countries))
	}
}

func TestFig6aShape(t *testing.T) {
	b := Fig6aUsers(testDS())
	// Paper: 575 / 288 / 70 / 104 at full scale. The generator assigns
	// devices to those buckets directly; at 5% scale counts shrink
	// ~20x. Shape: the 100–1K bar dominates, and the >10K bar exceeds
	// the 5–10K bar (the paper's distinctive inversion).
	if b.H100to1K <= b.K1to5 || b.K1to5 <= b.K5to10 {
		t.Errorf("bucket ordering wrong: %+v", b)
	}
	if b.Over10K <= b.K5to10 {
		t.Errorf("paper's >10K inversion missing: %+v", b)
	}
}

func TestFig6bShape(t *testing.T) {
	b := Fig6bApps(testDS())
	if b.H100to1K <= b.K1to5 || b.K1to5 <= b.K5to10 {
		t.Errorf("bucket ordering wrong: %+v", b)
	}
}

func TestFig7TopCountries(t *testing.T) {
	top := Fig7TopCountries(testDS(), 20)
	if len(top) != 20 {
		t.Fatalf("got %d countries", len(top))
	}
	if top[0].Name != "USA" {
		t.Errorf("top country %q, want USA", top[0].Name)
	}
	// USA has ~5-7x the UK's devices (790 vs 116).
	var uk int
	for _, c := range top {
		if c.Name == "UK" {
			uk = c.Devices
		}
	}
	if uk == 0 {
		t.Fatal("UK not in top 20")
	}
	if ratio := float64(top[0].Devices) / float64(uk); ratio < 3 || ratio > 14 {
		t.Errorf("USA/UK ratio %.1f, paper is ~6.8", ratio)
	}
}

func TestFig8Locations(t *testing.T) {
	locs := Fig8Locations(testDS())
	// ~3 locations per device (6,987 over 2,351 devices).
	perDevice := float64(len(locs)) / float64(len(testDS().Devices))
	if perDevice < 1.5 || perDevice > 5 {
		t.Errorf("locations per device %.1f", perDevice)
	}
	for _, l := range locs {
		if l.Lat < -85 || l.Lat > 85 || l.Lon < -180 || l.Lon > 180 {
			t.Fatalf("location out of range: %+v", l)
		}
	}
}

func TestFig9Medians(t *testing.T) {
	f := Fig9(testDS())
	// Paper: overall 65 ms, WiFi 58 ms, cellular 84 ms, LTE 76 ms.
	within(t, "overall app median", f.All.Median(), 65, 0.25)
	within(t, "WiFi app median", f.WiFi.Median(), 58, 0.25)
	within(t, "cellular app median", f.Cellular.Median(), 84, 0.25)
	within(t, "LTE app median", f.MedianLTE, 76, 0.25)
	if f.WiFi.Median() >= f.Cellular.Median() {
		t.Error("WiFi not faster than cellular")
	}
}

func TestFig9aDistributionShape(t *testing.T) {
	f := Fig9(testDS())
	// Paper: ~40% below 50 ms, ~60% below 100 ms, ~20% above 200 ms,
	// ~10% above 400 ms.
	if p := f.All.At(50); p < 0.25 || p > 0.55 {
		t.Errorf("P(<=50ms) = %.2f, paper ~0.40", p)
	}
	if p := f.All.At(100); p < 0.45 || p > 0.75 {
		t.Errorf("P(<=100ms) = %.2f, paper ~0.60", p)
	}
	if p := 1 - f.All.At(200); p < 0.08 || p > 0.35 {
		t.Errorf("P(>200ms) = %.2f, paper ~0.20", p)
	}
	if p := 1 - f.All.At(400); p < 0.03 || p > 0.20 {
		t.Errorf("P(>400ms) = %.2f, paper ~0.10", p)
	}
}

func TestFig9bPerAppMedians(t *testing.T) {
	f := Fig9(testDS())
	if f.AppsInB < 100 {
		t.Fatalf("only %d apps above the scaled 1K cutoff (paper: 424)", f.AppsInB)
	}
	// Paper: >70% of apps under 100 ms; ~10% above 200 ms.
	if p := f.PerAppMedians.At(100); p < 0.55 {
		t.Errorf("fraction of apps under 100ms = %.2f, paper >0.70", p)
	}
	if p := 1 - f.PerAppMedians.At(200); p < 0.03 || p > 0.30 {
		t.Errorf("fraction of apps over 200ms = %.2f, paper ~0.10", p)
	}
}

func TestFig10DNSMedians(t *testing.T) {
	f := Fig10(testDS())
	// Paper: all 42, WiFi 33, cellular 61; 4G 56, 3G 105, 2G 755.
	within(t, "DNS all median", f.All.Median(), 42, 0.25)
	within(t, "DNS WiFi median", f.WiFi.Median(), 33, 0.25)
	within(t, "DNS cellular median", f.Cellular.Median(), 61, 0.30)
	within(t, "DNS 4G median", f.LTE.Median(), 56, 0.25)
	within(t, "DNS 3G median", f.G3.Median(), 105, 0.25)
	within(t, "DNS 2G median", f.G2.Median(), 755, 0.30)
	// ~80% of DNS RTTs under 100 ms; DNS beats app traffic.
	if p := f.All.At(100); p < 0.65 {
		t.Errorf("P(DNS<=100ms) = %.2f, paper ~0.80", p)
	}
	// ~80% of cellular DNS from 4G.
	var lte, cell int
	for _, r := range testDS().DNS() {
		switch r.NetType {
		case "LTE":
			lte++
			cell++
		case "3G", "2G":
			cell++
		}
	}
	lteShare := float64(lte) / float64(cell)
	if lteShare < 0.6 || lteShare > 0.92 {
		t.Errorf("4G share of cellular DNS = %.2f, paper ~0.80", lteShare)
	}
}

func TestFig11FourISPs(t *testing.T) {
	cdfs := Fig11(testDS(), Fig11Defaults)
	cellDNS := map[string]int{}
	for _, r := range testDS().DNS() {
		if r.NetType != "WiFi" {
			cellDNS[r.ISP]++
		}
	}
	for _, isp := range Fig11Defaults {
		if cdfs[isp] == nil || cellDNS[isp] < 50 {
			t.Fatalf("ISP %s missing or thin (%d cellular DNS records)", isp, cellDNS[isp])
		}
	}
	// Singtel: ~14.7% under 10 ms; Verizon <1%.
	if p := cdfs["Singtel"].At(10); p < 0.08 || p > 0.25 {
		t.Errorf("Singtel P(<=10ms) = %.2f, paper 0.147", p)
	}
	if p := cdfs["Verizon"].At(10); p > 0.03 {
		t.Errorf("Verizon P(<=10ms) = %.2f, paper <0.01", p)
	}
	// Cricket and U.S. Cellular floors near 43 ms.
	for _, isp := range []string{"Cricket", "U.S. Cellular"} {
		if p := cdfs[isp].At(35); p > 0.05 {
			t.Errorf("%s P(<=35ms) = %.2f, paper has a ~43ms floor", isp, p)
		}
	}
	// Worst performers clearly worse than Verizon at the median.
	if cdfs["Cricket"].Median() < cdfs["Verizon"].Median()*1.4 {
		t.Errorf("Cricket median %.0f not well above Verizon %.0f",
			cdfs["Cricket"].Median(), cdfs["Verizon"].Median())
	}
}

func TestTable5RepresentativeApps(t *testing.T) {
	rows := Table5(testDS())
	if len(rows) != 16 {
		t.Fatalf("got %d rows", len(rows))
	}
	byLabel := make(map[string]Table5Row)
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.N == 0 {
			t.Errorf("%s has no measurements", r.Label)
		}
	}
	// Medians within 25% of Table 5.
	for _, want := range []struct {
		label  string
		median float64
	}{
		{"Facebook", 61}, {"WeChat", 36}, {"Whatsapp", 133},
		{"YouTube", 32}, {"Google Play Store", 48}, {"Ebay", 70},
	} {
		within(t, want.label+" median", byLabel[want.label].MedianMS, want.median, 0.25)
	}
	// Count ordering: Facebook is the most measured app.
	for _, r := range rows {
		if r.Label != "Facebook" && r.N > byLabel["Facebook"].N {
			t.Errorf("%s (%d) out-measured Facebook (%d)", r.Label, r.N, byLabel["Facebook"].N)
		}
	}
	// Whatsapp is the slow outlier among communication apps.
	if byLabel["Whatsapp"].MedianMS < 100 {
		t.Errorf("Whatsapp median %.0f, paper reports 133", byLabel["Whatsapp"].MedianMS)
	}
}

func TestTable6ISPs(t *testing.T) {
	rows := Table6(testDS(), 15)
	if len(rows) != 15 {
		t.Fatalf("got %d rows", len(rows))
	}
	medians := make(map[string]float64)
	for _, r := range rows {
		medians[r.Name] = r.MedianMS
	}
	for _, want := range []struct {
		name   string
		median float64
	}{
		{"Verizon", 46}, {"Jio 4G", 59}, {"Singtel", 27}, {"Cricket", 93},
	} {
		got, ok := medians[want.name]
		if !ok {
			t.Errorf("%s not in top 15", want.name)
			continue
		}
		within(t, want.name+" DNS median", got, want.median, 0.30)
	}
	// Verizon leads the volume ranking, as in Table 6.
	if rows[0].Name != "Verizon" {
		t.Errorf("top ISP by volume is %s, want Verizon", rows[0].Name)
	}
}

func TestWhatsappCase(t *testing.T) {
	c := AnalyzeWhatsapp(testDS())
	if c.TotalDomains < 250 {
		t.Fatalf("only %d whatsapp.net domains (paper: 334)", c.TotalDomains)
	}
	within(t, "SoftLayer traffic median", c.SlowDomainMedian, 261, 0.25)
	if len(c.FastDomainNames) != 3 {
		t.Fatalf("fast domains: %v", c.FastDomainNames)
	}
	for d, m := range c.FastMedians {
		if m >= 100 {
			t.Errorf("CDN domain %s median %.0f, paper <100", d, m)
		}
	}
	// "all except three" slow domains have medians above 200 ms.
	if c.DomainsMeasured > 0 {
		frac := float64(c.DomainMediansOver200) / float64(c.DomainsMeasured)
		if frac < 0.7 {
			t.Errorf("only %.0f%% of slow domains above 200ms", frac*100)
		}
	}
}

func TestJioCase(t *testing.T) {
	c := AnalyzeJio(testDS())
	within(t, "Jio app median", c.AppMedian, 281, 0.25)
	within(t, "Jio DNS median", c.DNSMedian, 59, 0.25)
	if c.AppMedian < 3*c.DNSMedian {
		t.Error("app/DNS contrast too small; the case's diagnosis depends on it")
	}
	if c.DomainsMeasured == 0 {
		t.Fatal("no domains measured on Jio")
	}
	// Most domains are slow on Jio; most are faster elsewhere.
	if c.Over200 < c.Under100 {
		t.Errorf(">200ms domains (%d) fewer than <100ms (%d); paper: 67 vs 19", c.Over200, c.Under100)
	}
	if c.ComparedDomains > 0 {
		frac := float64(c.FasterOffJio) / float64(c.ComparedDomains)
		if frac < 0.6 {
			t.Errorf("only %.0f%% of domains faster off Jio (paper: 63/71)", frac*100)
		}
		if c.MeanAdvantageMS < 50 {
			t.Errorf("mean off-Jio advantage %.0f ms (paper: 138)", c.MeanAdvantageMS)
		}
	}
}

func TestSummaryMentionsScale(t *testing.T) {
	s := testDS().Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestRecordFieldsPopulated(t *testing.T) {
	for i, r := range testDS().Records[:1000] {
		if r.Device == "" || r.Country == "" || r.ISP == "" || r.NetType == "" {
			t.Fatalf("record %d missing dims: %+v", i, r)
		}
		if r.RTT <= 0 {
			t.Fatalf("record %d non-positive RTT", i)
		}
		if r.Kind == measure.KindTCP && r.App == "" {
			t.Fatalf("record %d TCP without app", i)
		}
		if !r.At.After(DeployStart.Add(-1)) || !r.At.Before(DeployEnd) {
			t.Fatalf("record %d outside deploy window: %v", i, r.At)
		}
	}
}

func TestDNSBeatsAppTraffic(t *testing.T) {
	// §4.2.3: DNS RTTs are much better than per-app RTTs (80% of DNS
	// under 100 ms vs 80% of app RTTs under 200 ms).
	f9, f10 := Fig9(testDS()), Fig10(testDS())
	if f10.All.Median() >= f9.All.Median() {
		t.Errorf("DNS median %.0f not below app median %.0f", f10.All.Median(), f9.All.Median())
	}
}

func TestAnalysisPipelineOnReloadedJSONL(t *testing.T) {
	// The analysis functions must work on records loaded from a JSON
	// Lines export, not just on freshly generated ones — the pipeline
	// is supposed to be runnable on the real dataset.
	small := Generate(Config{Scale: 0.01, Seed: 77})
	var buf bytes.Buffer
	if err := measure.WriteJSONL(&buf, small.Records); err != nil {
		t.Fatal(err)
	}
	recs, err := measure.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(small.Records) {
		t.Fatalf("reloaded %d records, want %d", len(recs), len(small.Records))
	}
	for i := range recs {
		if recs[i] != small.Records[i] {
			t.Fatalf("record %d differs after reload:\n got %+v\nwant %+v", i, recs[i], small.Records[i])
		}
	}
	reloaded := &Dataset{Records: recs, Devices: small.Devices, Scale: small.Scale}
	f1, f2 := Fig9(small), Fig9(reloaded)
	if f1.All.Median() != f2.All.Median() {
		t.Errorf("median differs after reload: %v vs %v", f1.All.Median(), f2.All.Median())
	}
	t5a, t5b := Table5(small), Table5(reloaded)
	for i := range t5a {
		if t5a[i] != t5b[i] {
			t.Errorf("Table5 row %d differs after reload", i)
		}
	}
}
