package crowd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/measure"
	"repro/internal/stats"
)

// This file is the §4.2 analysis pipeline. Every function consumes
// measurement records and device metadata only, so the same code would
// run on the real crowdsourced dataset.

// ContributionBuckets are the Figure 6 histogram bars. Thresholds are
// expressed at paper scale and converted via Dataset.ScaledThreshold.
type ContributionBuckets struct {
	Over10K  int
	K5to10   int
	K1to5    int
	H100to1K int
}

func bucketize(counts []int, t100, t1k, t5k, t10k int) ContributionBuckets {
	var b ContributionBuckets
	for _, c := range counts {
		switch {
		case c > t10k:
			b.Over10K++
		case c > t5k:
			b.K5to10++
		case c > t1k:
			b.K1to5++
		case c >= t100:
			b.H100to1K++
		}
	}
	return b
}

func (ds *Dataset) thresholds() (t100, t1k, t5k, t10k int) {
	return ds.ScaledThreshold(100), ds.ScaledThreshold(1000),
		ds.ScaledThreshold(5000), ds.ScaledThreshold(10000)
}

// Fig6aUsers histograms measurements per device (Figure 6a).
func Fig6aUsers(ds *Dataset) ContributionBuckets {
	perDevice := make(map[string]int)
	for _, r := range ds.Records {
		perDevice[r.Device]++
	}
	counts := make([]int, 0, len(perDevice))
	for _, c := range perDevice {
		counts = append(counts, c)
	}
	t100, t1k, t5k, t10k := ds.thresholds()
	return bucketize(counts, t100, t1k, t5k, t10k)
}

// Fig6bApps histograms measurements per app (Figure 6b), TCP records
// only since DNS is system-wide.
func Fig6bApps(ds *Dataset) ContributionBuckets {
	perApp := make(map[string]int)
	for _, r := range ds.Records {
		if r.Kind == measure.KindTCP {
			perApp[r.App]++
		}
	}
	counts := make([]int, 0, len(perApp))
	for _, c := range perApp {
		counts = append(counts, c)
	}
	t100, t1k, t5k, t10k := ds.thresholds()
	return bucketize(counts, t100, t1k, t5k, t10k)
}

// CountryCount is one Figure 7 bar.
type CountryCount struct {
	Name    string
	Devices int
}

// Fig7TopCountries returns the n countries with most devices.
func Fig7TopCountries(ds *Dataset, n int) []CountryCount {
	per := make(map[string]int)
	for _, d := range ds.Devices {
		per[d.Country]++
	}
	out := make([]CountryCount, 0, len(per))
	for c, k := range per {
		out = append(out, CountryCount{Name: c, Devices: k})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Fig8Locations returns all measurement locations (Figure 8 plots
// them on a world map; we report them as coordinates plus a region
// summary).
func Fig8Locations(ds *Dataset) []LatLon {
	var out []LatLon
	for _, d := range ds.Devices {
		out = append(out, d.Locations...)
	}
	return out
}

// Fig8RegionSummary counts locations in coarse latitude/longitude
// cells, the textual stand-in for the map.
func Fig8RegionSummary(ds *Dataset) map[string]int {
	out := make(map[string]int)
	for _, l := range Fig8Locations(ds) {
		cell := fmt.Sprintf("lat[%+04d..%+04d) lon[%+04d..%+04d)",
			int(l.Lat/30)*30, int(l.Lat/30)*30+30,
			int(l.Lon/60)*60, int(l.Lon/60)*60+60)
		out[cell]++
	}
	return out
}

// Fig9Result holds the app-RTT distributions of Figure 9.
type Fig9Result struct {
	All      *stats.CDF // raw RTTs, all access types
	WiFi     *stats.CDF
	Cellular *stats.CDF
	// MedianLTE is reported in the text alongside the figure.
	MedianLTE float64
	// PerAppMedians is Figure 9(b): medians of apps above the (scaled)
	// 1K-measurement cutoff.
	PerAppMedians *stats.CDF
	AppsInB       int
}

// Fig9 computes the per-app RTT analysis (§4.2.2 overall results).
func Fig9(ds *Dataset) *Fig9Result {
	tcp := ds.TCP()
	var all, wifi, cell, lte []float64
	for _, r := range tcp {
		ms := r.RTT.Seconds() * 1000
		all = append(all, ms)
		if r.NetType == "WiFi" {
			wifi = append(wifi, ms)
		} else {
			cell = append(cell, ms)
			if r.NetType == "LTE" {
				lte = append(lte, ms)
			}
		}
	}
	res := &Fig9Result{
		All:       stats.NewCDF(all),
		WiFi:      stats.NewCDF(wifi),
		Cellular:  stats.NewCDF(cell),
		MedianLTE: stats.Median(lte),
	}
	cut := ds.ScaledThreshold(1000)
	medians := make([]float64, 0)
	for _, rs := range measure.ByApp(tcp) {
		if len(rs) >= cut {
			medians = append(medians, measure.MedianRTT(rs))
		}
	}
	res.PerAppMedians = stats.NewCDF(medians)
	res.AppsInB = len(medians)
	return res
}

// Fig10Result holds the DNS distributions of Figure 10.
type Fig10Result struct {
	All      *stats.CDF
	WiFi     *stats.CDF
	Cellular *stats.CDF
	LTE      *stats.CDF
	G3       *stats.CDF
	G2       *stats.CDF
}

// Fig10 computes the DNS analysis (§4.2.3 overall results).
func Fig10(ds *Dataset) *Fig10Result {
	var all, wifi, cell, lte, g3, g2 []float64
	for _, r := range ds.DNS() {
		ms := r.RTT.Seconds() * 1000
		all = append(all, ms)
		switch r.NetType {
		case "WiFi":
			wifi = append(wifi, ms)
		case "LTE":
			cell = append(cell, ms)
			lte = append(lte, ms)
		case "3G":
			cell = append(cell, ms)
			g3 = append(g3, ms)
		case "2G":
			cell = append(cell, ms)
			g2 = append(g2, ms)
		}
	}
	return &Fig10Result{
		All:      stats.NewCDF(all),
		WiFi:     stats.NewCDF(wifi),
		Cellular: stats.NewCDF(cell),
		LTE:      stats.NewCDF(lte),
		G3:       stats.NewCDF(g3),
		G2:       stats.NewCDF(g2),
	}
}

// Fig11 returns the DNS RTT CDFs of the four ISPs the paper singles
// out (Verizon baseline, outstanding Singtel, poor Cricket and U.S.
// Cellular). Cellular records of any generation count, matching the
// paper's observation that around half of Cricket/U.S. Cellular's DNS
// samples came from non-LTE fallback.
func Fig11(ds *Dataset, isps []string) map[string]*stats.CDF {
	per := make(map[string][]float64)
	for _, r := range ds.DNS() {
		if r.NetType == "WiFi" {
			continue
		}
		for _, want := range isps {
			if r.ISP == want {
				per[want] = append(per[want], r.RTT.Seconds()*1000)
			}
		}
	}
	out := make(map[string]*stats.CDF, len(per))
	for isp, ms := range per {
		out[isp] = stats.NewCDF(ms)
	}
	return out
}

// Fig11Defaults are the paper's four ISPs.
var Fig11Defaults = []string{"Verizon", "Singtel", "Cricket", "U.S. Cellular"}

// Table5Row is one representative app's measured performance.
type Table5Row struct {
	Category string
	Label    string
	N        int
	MedianMS float64
}

// Table5 computes the representative-app table from the dataset.
func Table5(ds *Dataset) []Table5Row {
	byApp := measure.ByApp(ds.TCP())
	rows := make([]Table5Row, 0, len(repApps))
	for _, s := range repApps {
		rs := byApp[s.Package]
		rows = append(rows, Table5Row{
			Category: s.Category,
			Label:    s.Label,
			N:        len(rs),
			MedianMS: measure.MedianRTT(rs),
		})
	}
	return rows
}

// Table6Row is one LTE operator's DNS performance.
type Table6Row struct {
	Name     string
	Country  string
	N        int
	MedianMS float64
}

// Table6 computes the LTE-ISP DNS table: the top-n cellular ISPs by
// DNS measurement volume.
func Table6(ds *Dataset, n int) []Table6Row {
	perISP := make(map[string][]float64)
	for _, r := range ds.DNS() {
		if r.NetType == "WiFi" {
			continue
		}
		perISP[r.ISP] = append(perISP[r.ISP], r.RTT.Seconds()*1000)
	}
	countryOf := make(map[string]string)
	for _, d := range ds.Devices {
		countryOf[d.CellISP] = d.Country
	}
	rows := make([]Table6Row, 0, len(perISP))
	for isp, ms := range perISP {
		rows = append(rows, Table6Row{
			Name:     isp,
			Country:  countryOf[isp],
			N:        len(ms),
			MedianMS: stats.Median(ms),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].N != rows[j].N {
			return rows[i].N > rows[j].N
		}
		return rows[i].Name < rows[j].Name
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// ISPMedianRow is one ISP's median RTT for one measurement kind.
type ISPMedianRow struct {
	Name     string
	N        int
	MedianMS float64
}

// ISPMedians ranks ISPs by their median RTT of the given kind, slowest
// first — the §4.2 per-operator comparison generalised beyond Table
// 6's LTE/DNS slice. The scenario matrix uses it to check that a
// planted slow network actually surfaces as the slowest operator in
// the crowd view.
func ISPMedians(ds *Dataset, kind measure.Kind) []ISPMedianRow {
	perISP := make(map[string][]float64)
	for _, r := range ds.Records {
		if r.Kind != kind || r.ISP == "" {
			continue
		}
		perISP[r.ISP] = append(perISP[r.ISP], r.RTT.Seconds()*1000)
	}
	rows := make([]ISPMedianRow, 0, len(perISP))
	for isp, ms := range perISP {
		rows = append(rows, ISPMedianRow{Name: isp, N: len(ms), MedianMS: stats.Median(ms)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MedianMS != rows[j].MedianMS {
			return rows[i].MedianMS > rows[j].MedianMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// RenderCDFs prints labelled CDF series at the x anchors the paper's
// figures use (0–400 ms).
func RenderCDFs(title string, labelled map[string]*stats.CDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	labels := make([]string, 0, len(labelled))
	for l := range labelled {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintf(&b, "%8s", "x(ms)")
	for _, l := range labels {
		fmt.Fprintf(&b, "  %12s", l)
	}
	b.WriteByte('\n')
	for _, x := range []float64{10, 25, 50, 75, 100, 150, 200, 300, 400} {
		fmt.Fprintf(&b, "%8.0f", x)
		for _, l := range labels {
			fmt.Fprintf(&b, "  %12.3f", labelled[l].At(x))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8s", "median")
	for _, l := range labels {
		fmt.Fprintf(&b, "  %12.1f", labelled[l].Median())
	}
	b.WriteByte('\n')
	return b.String()
}
