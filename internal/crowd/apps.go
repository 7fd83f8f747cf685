package crowd

import (
	"fmt"
	"math"
	"math/rand"
)

// appModel is one generated app with its traffic calibration.
type appModel struct {
	Package string
	// Weight is the app's share of TCP measurements (its target count
	// at full scale).
	Weight float64
	// BaseMS is the app's base RTT; per-record RTTs multiply in network
	// and ISP factors plus lognormal noise.
	BaseMS float64
	// Domains the app contacts; per-domain base overrides support the
	// Whatsapp split.
	Domains []domainModel
}

type domainModel struct {
	Name string
	// BaseMS overrides the app base when positive.
	BaseMS float64
	// Weight is the domain's share of the app's traffic.
	Weight float64
}

// appBaseDivisor converts a published overall median into the app base:
// the overall median folds in the network-factor mixture, whose median
// sits near the WiFi factor.
const appBaseDivisor = 0.92

// fig6bBuckets is Figure 6(b): of the 1,549 apps with at least 100
// measurements, 60 exceed 10K, 58 sit in 5–10K, 306 in 1–5K, 1,125 in
// 100–1K. All 16 Table 5 apps are in the >10K group.
var fig6bBuckets = []struct {
	Apps     int
	MinCount int
	MaxCount int
}{
	{60 - len(repApps), 10000, 60000},
	{58, 5000, 10000},
	{306, 1000, 5000},
	{1125, 100, 1000},
	{PaperApps - 1549, 1, 100},
}

// buildApps constructs the full app population: the 16 representative
// apps calibrated to Table 5, plus a popularity-decaying tail out to
// 6,266 apps.
func buildApps(rng *rand.Rand) []*appModel {
	apps := make([]*appModel, 0, PaperApps)
	for _, s := range repApps {
		a := &appModel{
			Package: s.Package,
			Weight:  float64(s.PaperN),
			BaseMS:  s.MedianMS / appBaseDivisor,
		}
		if s.Package == "com.whatsapp" {
			a.Domains = whatsappDomainModels()
		} else {
			for _, d := range s.Domains {
				w := 1.0
				if d == "graph.facebook.com" {
					// The single most accessed domain in the dataset:
					// 142,873 of Facebook's 215,769 connections.
					w = 4.0
				}
				a.Domains = append(a.Domains, domainModel{Name: d, Weight: w})
			}
		}
		apps = append(apps, a)
	}
	idx := 0
	for _, b := range fig6bBuckets {
		for i := 0; i < b.Apps; i++ {
			idx++
			span := math.Log(float64(b.MaxCount) / float64(b.MinCount))
			count := float64(b.MinCount) * math.Exp(rng.Float64()*span)
			// Tail app medians: lognormal around 70 ms with a heavy
			// right tail, which produces the slow 10% of apps Figure
			// 9(b) shows above 200 ms.
			base := 70 * math.Exp(rng.NormFloat64()*0.85)
			a := &appModel{
				Package: fmt.Sprintf("app.tail%04d.android", idx),
				Weight:  count,
				BaseMS:  base,
			}
			nd := 1 + rng.Intn(8)
			for d := 0; d < nd; d++ {
				a.Domains = append(a.Domains, domainModel{
					Name:   fmt.Sprintf("api%d.app%04d.example", d, idx),
					Weight: 1,
				})
			}
			apps = append(apps, a)
		}
	}
	return apps
}

// whatsappDomainModels builds the 334 whatsapp.net domains: three fast
// ones on the Facebook CDN carrying roughly half the traffic, and 331
// slow ones on SoftLayer (§4.2.2 Case 1).
func whatsappDomainModels() []domainModel {
	out := make([]domainModel, 0, whatsappDomains)
	fastNames := []string{"mme.whatsapp.net", "mmg.whatsapp.net", "pps.whatsapp.net"}
	for _, n := range fastNames {
		out = append(out, domainModel{
			Name:   n,
			BaseMS: whatsappFastMedianMS / appBaseDivisor,
			// The three CDN domains together carry over half the
			// app's connections, which is what pulls the app's overall
			// median down to Table 5's 133 ms while the SoftLayer
			// domains sit at 261 ms.
			Weight: 185,
		})
	}
	for i := 0; i < whatsappDomains-whatsappFastDomains; i++ {
		out = append(out, domainModel{
			Name:   fmt.Sprintf("e%d.whatsapp.net", i+1),
			BaseMS: whatsappSlowMedianMS / appBaseDivisor,
			Weight: 1,
		})
	}
	return out
}

// pickDomain samples one of the app's domains by weight.
func (a *appModel) pickDomain(rng *rand.Rand) domainModel {
	if len(a.Domains) == 0 {
		return domainModel{Name: a.Package + ".example"}
	}
	var sum float64
	for _, d := range a.Domains {
		sum += d.Weight
	}
	x := rng.Float64() * sum
	for _, d := range a.Domains {
		x -= d.Weight
		if x <= 0 {
			return d
		}
	}
	return a.Domains[len(a.Domains)-1]
}
