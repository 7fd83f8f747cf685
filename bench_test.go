// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableN/BenchmarkFigN corresponds to one
// artifact; custom metrics carry the headline numbers so `go test
// -bench` output doubles as a results table. EXPERIMENTS.md records a
// full run against the paper's values.
package repro_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/baselines/haystack"
	"repro/internal/crowd"
	"repro/internal/engine"
	"repro/mopeye"
)

// Aliases keeping the ablation table readable.
type engineConfig = engine.Config

func engineDefault() engine.Config  { return engine.Default() }
func engineToyVpn() engine.Config   { return engine.ToyVpn() }
func haystackConfig() engine.Config { return haystack.Config() }

// benchStudy is generated once and shared by the read-only analysis
// benchmarks.
var (
	benchStudyOnce sync.Once
	benchStudy     *mopeye.Study
)

func study() *mopeye.Study {
	benchStudyOnce.Do(func() {
		benchStudy = mopeye.NewStudy(0.05, 2016)
	})
	return benchStudy
}

// BenchmarkTable1_WriteSchemes regenerates Table 1: tunnel-write and
// enqueue delay under the four writing schemes (§3.5.1).
func BenchmarkTable1_WriteSchemes(b *testing.B) {
	o := mopeye.DefaultTable1Options()
	o.Pages = 6
	var last *mopeye.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunTable1(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.DirectWrite.LargeFraction()*100, "direct-large-%")
	b.ReportMetric(last.OldPut.LargeFraction()*100, "oldPut-large-%")
	b.ReportMetric(last.NewPut.LargeFraction()*100, "newPut-large-%")
	b.Logf("\n%s", last)
}

// BenchmarkTable2_Accuracy regenerates Table 2: MopEye vs MobiPerf
// accuracy against tcpdump ground truth (§4.1.1).
func BenchmarkTable2_Accuracy(b *testing.B) {
	o := mopeye.DefaultTable2Options()
	o.RunsPerDest = 1
	o.ProbesPerRun = 8
	var rows []mopeye.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mopeye.RunTable2(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstMop, worstMobi float64
	for _, r := range rows {
		if r.DeltaMopEye > worstMop {
			worstMop = r.DeltaMopEye
		}
		if r.DeltaMobiPerf > worstMobi {
			worstMobi = r.DeltaMobiPerf
		}
	}
	b.ReportMetric(worstMop, "mopeye-worst-δms")
	b.ReportMetric(worstMobi, "mobiperf-worst-δms")
	b.Logf("\n%s", mopeye.RenderTable2(rows))
}

// BenchmarkTable3_Throughput regenerates Table 3: relay throughput
// overhead (§4.1.2).
func BenchmarkTable3_Throughput(b *testing.B) {
	o := mopeye.DefaultTable3Options()
	o.Duration = time.Second
	var last *mopeye.Table3Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MopEyeDown, "mopeye-down-Mbps")
	b.ReportMetric(last.MopEyeUp, "mopeye-up-Mbps")
	b.ReportMetric(last.HaystackDown, "haystack-down-Mbps")
	b.ReportMetric(last.HaystackUp, "haystack-up-Mbps")
	b.Logf("\n%s", last)
}

// BenchmarkTable4_Resources regenerates Table 4: CPU/battery/memory
// overhead during a streamed video (§4.1.3).
func BenchmarkTable4_Resources(b *testing.B) {
	o := mopeye.DefaultTable4Options()
	o.Duration = 1500 * time.Millisecond
	var last *mopeye.Table4Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MopEye.CPUPercent, "mopeye-cpu-%")
	b.ReportMetric(last.Haystack.CPUPercent, "haystack-cpu-%")
	b.ReportMetric(last.MopEye.MemoryMB, "mopeye-mem-MB")
	b.ReportMetric(last.Haystack.MemoryMB, "haystack-mem-MB")
	b.Logf("\n%s", last)
}

// BenchmarkFig5_LazyMapping regenerates Figure 5: packet-to-app mapping
// overhead before/after the lazy scheme (§3.3).
func BenchmarkFig5_LazyMapping(b *testing.B) {
	o := mopeye.DefaultFig5Options()
	o.Pages = 10
	var last *mopeye.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunFig5(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Lazy.MitigationRate()*100, "mitigation-%")
	b.ReportMetric((1-last.EagerCDF.At(5))*100, "eager->5ms-%")
	b.Logf("\n%s", last)
}

// BenchmarkFig6_Contributions regenerates Figure 6: measurements per
// user and per app.
func BenchmarkFig6_Contributions(b *testing.B) {
	s := study()
	var a, ap crowd.ContributionBuckets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = crowd.Fig6aUsers(s.Dataset())
		ap = crowd.Fig6bApps(s.Dataset())
	}
	b.ReportMetric(float64(a.Over10K), "users->10K")
	b.ReportMetric(float64(ap.H100to1K), "apps-100-1K")
	b.Logf("\n%s", s.ReportContributions())
}

// BenchmarkFig7_Countries regenerates Figure 7 (top user countries)
// and the Figure 8 location summary.
func BenchmarkFig7_Countries(b *testing.B) {
	s := study()
	var top []crowd.CountryCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top = crowd.Fig7TopCountries(s.Dataset(), 20)
	}
	b.ReportMetric(float64(top[0].Devices), "top-country-devices")
	b.Logf("\n%s", s.ReportCountries())
}

// BenchmarkFig9_AppRTT regenerates Figure 9: raw and per-app-median
// RTT distributions.
func BenchmarkFig9_AppRTT(b *testing.B) {
	s := study()
	var f *crowd.Fig9Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = crowd.Fig9(s.Dataset())
	}
	b.ReportMetric(f.All.Median(), "median-all-ms")
	b.ReportMetric(f.WiFi.Median(), "median-wifi-ms")
	b.ReportMetric(f.Cellular.Median(), "median-cell-ms")
	b.ReportMetric(f.MedianLTE, "median-lte-ms")
	b.Logf("\n%s", s.ReportAppRTT())
}

// BenchmarkFig10_DNS regenerates Figure 10: DNS RTT distributions.
func BenchmarkFig10_DNS(b *testing.B) {
	s := study()
	var f *crowd.Fig10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = crowd.Fig10(s.Dataset())
	}
	b.ReportMetric(f.All.Median(), "median-all-ms")
	b.ReportMetric(f.WiFi.Median(), "median-wifi-ms")
	b.ReportMetric(f.LTE.Median(), "median-4g-ms")
	b.ReportMetric(f.G3.Median(), "median-3g-ms")
	b.ReportMetric(f.G2.Median(), "median-2g-ms")
	b.Logf("\n%s", s.ReportDNS())
}

// BenchmarkFig11_ISPDNS regenerates Figure 11: per-ISP DNS CDFs.
func BenchmarkFig11_ISPDNS(b *testing.B) {
	s := study()
	var cdfs map[string]*statsCDF
	_ = cdfs
	var singtelFast, verizonFast float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := crowd.Fig11(s.Dataset(), crowd.Fig11Defaults)
		singtelFast = m["Singtel"].At(10)
		verizonFast = m["Verizon"].At(10)
	}
	b.ReportMetric(singtelFast*100, "singtel-<10ms-%")
	b.ReportMetric(verizonFast*100, "verizon-<10ms-%")
}

// statsCDF avoids importing internal/stats here just for a type name.
type statsCDF = struct{}

// BenchmarkTable5_Apps regenerates Table 5: representative apps.
func BenchmarkTable5_Apps(b *testing.B) {
	s := study()
	var rows []crowd.Table5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = crowd.Table5(s.Dataset())
	}
	for _, r := range rows {
		if r.Label == "Whatsapp" {
			b.ReportMetric(r.MedianMS, "whatsapp-median-ms")
		}
		if r.Label == "YouTube" {
			b.ReportMetric(r.MedianMS, "youtube-median-ms")
		}
	}
	b.Logf("\n%s", s.ReportApps())
}

// BenchmarkTable6_ISPs regenerates Table 6: LTE operator DNS
// performance.
func BenchmarkTable6_ISPs(b *testing.B) {
	s := study()
	var rows []crowd.Table6Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = crowd.Table6(s.Dataset(), 15)
	}
	b.ReportMetric(float64(rows[0].N), "top-isp-dns-count")
	b.ReportMetric(rows[0].MedianMS, "top-isp-median-ms")
	b.Logf("\n%s", s.ReportISPs())
}

// BenchmarkCaseStudies regenerates the §4.2.2 case studies.
func BenchmarkCaseStudies(b *testing.B) {
	s := study()
	var wa *crowd.WhatsappCase
	var jio *crowd.JioCase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wa = crowd.AnalyzeWhatsapp(s.Dataset())
		jio = crowd.AnalyzeJio(s.Dataset())
	}
	b.ReportMetric(wa.SlowDomainMedian, "whatsapp-softlayer-ms")
	b.ReportMetric(jio.AppMedian, "jio-app-median-ms")
	b.ReportMetric(jio.DNSMedian, "jio-dns-median-ms")
	b.Logf("\n%s\n%s", wa, jio)
}

// BenchmarkCrowdGenerate measures dataset generation itself.
func BenchmarkCrowdGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := crowd.Generate(crowd.Config{Scale: 0.02, Seed: int64(i + 1)})
		if len(ds.Records) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkAblationConnectLatency compares the app-observed connect
// latency across engine variants — the ablation DESIGN.md calls out:
// MopEye's defaults vs the ToyVpn-style unoptimised relay vs the
// Haystack-style poll-based relay.
func BenchmarkAblationConnectLatency(b *testing.B) {
	variants := []struct {
		name string
		cfg  func() engineConfig
	}{
		{"mopeye", func() engineConfig { return engineDefault() }},
		{"toyvpn", func() engineConfig {
			c := engineToyVpn()
			c.PollInterval = 20 * time.Millisecond
			return c
		}},
		{"haystack", func() engineConfig { return haystackConfig() }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg()
			phone, err := mopeye.New(mopeye.Options{
				Servers: []mopeye.Server{{Domain: "abl.example", Addr: "203.0.113.60:80", RTTMillis: 10}},
				Engine:  &cfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer phone.Close()
			phone.InstallApp(1, "abl.app")
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := phone.Connect(1, "203.0.113.60:80")
				if err != nil {
					b.Fatal(err)
				}
				total += conn.ConnectLatency()
				conn.Close()
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "connect-ms")
		})
	}
}
