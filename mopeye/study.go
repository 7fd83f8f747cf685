package mopeye

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/crowd"
	"repro/internal/stats"
)

// Study is a crowdsourcing dataset (§4.2) with the analysis pipeline
// attached: generated by NewStudy, standing in for the paper's
// ten-month Google Play deployment (see DESIGN.md for the substitution
// rationale), or built by NewStudyFrom over records actually collected,
// which it shares with the caller rather than copies.
type Study struct {
	ds *crowd.Dataset
}

// NewStudy generates a dataset at the given scale (1.0 reproduces the
// paper's ~5.25M measurements; 0.05–0.1 is plenty for stable
// analyses).
func NewStudy(scale float64, seed int64) *Study {
	return &Study{ds: crowd.Generate(crowd.Config{Scale: scale, Seed: seed})}
}

// NewStudyFrom builds a Study over already-collected measurement
// records — a phone's Measurements, a collector's spool read back with
// crowd.ReadSpool, or a JSON Lines export loaded back with
// measure.ReadJSONL — instead of the statistical generator.
// Device metadata is reconstructed from the records; the analysis
// pipeline is identical. The study keeps records as its dataset's
// Records, not a copy, so the caller must not modify them afterwards.
func NewStudyFrom(records []Measurement) *Study {
	return &Study{ds: crowd.Ingest(records)}
}

// Dataset exposes the underlying dataset for custom analysis. Its
// Records export as JSON Lines through measure.WriteJSONL, which
// `crowdstudy -dump` uses.
func (s *Study) Dataset() *crowd.Dataset { return s.ds }

// Summary is the §4.2.1 dataset statistics line.
func (s *Study) Summary() string { return s.ds.Summary() }

// ReportAll renders every §4.2 table and figure.
func (s *Study) ReportAll() string {
	var b strings.Builder
	b.WriteString(s.Summary())
	b.WriteString("\n\n")
	b.WriteString(s.ReportContributions())
	b.WriteString("\n")
	b.WriteString(s.ReportCountries())
	b.WriteString("\n")
	b.WriteString(s.ReportAppRTT())
	b.WriteString("\n")
	b.WriteString(s.ReportApps())
	b.WriteString("\n")
	b.WriteString(s.ReportDNS())
	b.WriteString("\n")
	b.WriteString(s.ReportISPs())
	b.WriteString("\n")
	b.WriteString(s.ReportCaseWhatsapp())
	b.WriteString("\n")
	b.WriteString(s.ReportCaseJio())
	return b.String()
}

// ReportContributions renders Figure 6.
func (s *Study) ReportContributions() string {
	a := crowd.Fig6aUsers(s.ds)
	bb := crowd.Fig6bApps(s.ds)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — contributions (scaled thresholds):\n")
	fmt.Fprintf(&b, "  by user:  >10K:%-5d 5K-10K:%-5d 1K-5K:%-5d 100-1K:%-5d\n",
		a.Over10K, a.K5to10, a.K1to5, a.H100to1K)
	fmt.Fprintf(&b, "  by app:   >10K:%-5d 5K-10K:%-5d 1K-5K:%-5d 100-1K:%-5d\n",
		bb.Over10K, bb.K5to10, bb.K1to5, bb.H100to1K)
	return b.String()
}

// ReportCountries renders Figure 7 and the Figure 8 summary.
func (s *Study) ReportCountries() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — top 20 user countries:\n")
	for i, c := range crowd.Fig7TopCountries(s.ds, 20) {
		fmt.Fprintf(&b, "  %2d. %-14s %d\n", i+1, c.Name, c.Devices)
	}
	locs := crowd.Fig8Locations(s.ds)
	fmt.Fprintf(&b, "Figure 8 — %d measurement locations across regions:\n", len(locs))
	regions := crowd.Fig8RegionSummary(s.ds)
	keys := make([]string, 0, len(regions))
	for k := range regions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return regions[keys[i]] > regions[keys[j]] })
	for i, k := range keys {
		if i >= 8 {
			break
		}
		fmt.Fprintf(&b, "  %-40s %d\n", k, regions[k])
	}
	return b.String()
}

// ReportAppRTT renders Figure 9.
func (s *Study) ReportAppRTT() string {
	f := crowd.Fig9(s.ds)
	var b strings.Builder
	b.WriteString(crowd.RenderCDFs("Figure 9(a) — raw app RTT CDFs:", map[string]*stats.CDF{
		"All": f.All, "WiFi": f.WiFi, "Cellular": f.Cellular,
	}))
	fmt.Fprintf(&b, "  LTE median: %.0f ms\n", f.MedianLTE)
	b.WriteString(crowd.RenderCDFs(
		fmt.Sprintf("Figure 9(b) — per-app median RTT CDF (%d apps above scaled 1K cutoff):", f.AppsInB),
		map[string]*stats.CDF{"AppMedians": f.PerAppMedians}))
	return b.String()
}

// ReportApps renders Table 5.
func (s *Study) ReportApps() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5 — representative apps:\n")
	fmt.Fprintf(&b, "  %-13s %-20s %8s %10s\n", "Category", "App", "# RTT", "Median")
	for _, r := range crowd.Table5(s.ds) {
		fmt.Fprintf(&b, "  %-13s %-20s %8d %8.1fms\n", r.Category, r.Label, r.N, r.MedianMS)
	}
	return b.String()
}

// ReportDNS renders Figure 10.
func (s *Study) ReportDNS() string {
	f := crowd.Fig10(s.ds)
	var b strings.Builder
	b.WriteString(crowd.RenderCDFs("Figure 10(a) — DNS RTT CDFs:", map[string]*stats.CDF{
		"All": f.All, "WiFi": f.WiFi, "Cellular": f.Cellular,
	}))
	b.WriteString(crowd.RenderCDFs("Figure 10(b) — cellular DNS by generation:", map[string]*stats.CDF{
		"4G LTE": f.LTE, "3G": f.G3, "2G": f.G2,
	}))
	return b.String()
}

// ReportISPs renders Table 6 and Figure 11.
func (s *Study) ReportISPs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6 — DNS performance of top 15 LTE operators:\n")
	fmt.Fprintf(&b, "  %-22s %-12s %8s %10s\n", "ISP", "Country", "# RTT", "Median")
	for _, r := range crowd.Table6(s.ds, 15) {
		fmt.Fprintf(&b, "  %-22s %-12s %8d %8.1fms\n", r.Name, r.Country, r.N, r.MedianMS)
	}
	cdfs := crowd.Fig11(s.ds, crowd.Fig11Defaults)
	asStats := make(map[string]*stats.CDF, len(cdfs))
	for k, v := range cdfs {
		asStats[k] = v
	}
	b.WriteString(crowd.RenderCDFs("Figure 11 — DNS CDFs of four LTE ISPs:", asStats))
	return b.String()
}

// ReportCaseWhatsapp renders §4.2.2 Case 1.
func (s *Study) ReportCaseWhatsapp() string {
	return crowd.AnalyzeWhatsapp(s.ds).String()
}

// ReportCaseJio renders §4.2.2 Case 2.
func (s *Study) ReportCaseJio() string {
	return crowd.AnalyzeJio(s.ds).String()
}
