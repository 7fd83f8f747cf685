package crowd

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/measure"
)

// Config sizes a generated dataset.
type Config struct {
	// Scale is the fraction of the paper's dataset to generate: 1.0
	// yields ~5.25M records from ~2,351 devices; 0.05 a fast test set.
	Scale float64
	// Seed drives all randomness; identical configs generate identical
	// datasets.
	Seed int64
}

// Dataset is one generated crowdsourced dataset.
type Dataset struct {
	Records []measure.Record
	Devices []*Device
	Scale   float64
}

// Generate builds a dataset calibrated to the paper's published
// marginals.
func Generate(cfg Config) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	devices := generateDevices(rng, cfg.Scale)
	apps := buildApps(rng)

	ds := &Dataset{Devices: devices, Scale: cfg.Scale}

	// Cumulative weights for device (by activity) and app (by volume)
	// sampling.
	devCum := make([]float64, len(devices))
	var devTotal float64
	for i, d := range devices {
		devTotal += float64(d.Activity)
		devCum[i] = devTotal
	}
	appCum := make([]float64, len(apps))
	var appTotal float64
	for i, a := range apps {
		appTotal += a.Weight
		appCum[i] = appTotal
	}

	total := int(math.Round(PaperTotalMeasurements * cfg.Scale))
	tcpShare := float64(PaperTCPMeasurements) / float64(PaperTotalMeasurements)
	window := DeployEnd.Sub(DeployStart)

	ds.Records = make([]measure.Record, 0, total)
	for i := 0; i < total; i++ {
		d := devices[cumPick(devCum, rng.Float64()*devTotal)]
		net, isp := sampleNetwork(rng, d)
		at := DeployStart.Add(time.Duration(rng.Int63n(int64(window))))
		if rng.Float64() < tcpShare {
			a := apps[cumPick(appCum, rng.Float64()*appTotal)]
			dom := a.pickDomain(rng)
			base := a.BaseMS
			if dom.BaseMS > 0 {
				base = dom.BaseMS
			}
			rtt := tcpRTT(rng, base, net, isp)
			ds.Records = append(ds.Records, measure.Record{
				Kind:    measure.KindTCP,
				App:     a.Package,
				Dst:     domainAddr(dom.Name, rng),
				Domain:  dom.Name,
				RTT:     rtt,
				At:      at,
				NetType: net,
				ISP:     isp,
				Country: d.Country,
				Device:  d.ID,
			})
		} else {
			rtt := dnsRTT(rng, net, isp)
			ds.Records = append(ds.Records, measure.Record{
				Kind:    measure.KindDNS,
				App:     "system.dns",
				Dst:     dnsServerAddr(isp, rng),
				Domain:  apps[cumPick(appCum, rng.Float64()*appTotal)].pickDomain(rng).Name,
				RTT:     rtt,
				At:      at,
				NetType: net,
				ISP:     isp,
				Country: d.Country,
				Device:  d.ID,
			})
		}
	}
	return ds
}

// cumPick binary-searches a cumulative weight array.
func cumPick(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sampleNetwork draws the measurement's network type and ISP label.
func sampleNetwork(rng *rand.Rand, d *Device) (netType, isp string) {
	if rng.Float64() < d.WiFiShare {
		return "WiFi", d.WiFiISP
	}
	isp = d.CellISP
	p := rng.Float64()
	nonLTE := nonLTEShareFor(isp)
	switch {
	case p < 0.02:
		return "2G", isp
	case p < 0.02+math.Max(nonLTE, 0.15):
		return "3G", isp
	default:
		return "LTE", isp
	}
}

// tcpRTT samples one app-traffic RTT in the generative model: app (or
// domain) base, network-type factor, ISP effect, lognormal noise.
func tcpRTT(rng *rand.Rand, baseMS float64, netType, isp string) time.Duration {
	f := 1.0
	switch netType {
	case "WiFi":
		f = wifiAppFactor
	case "LTE":
		f = lteAppFactor
	case "3G":
		f = g3AppFactor
	case "2G":
		f = g2AppFactor
	}
	// Jio's LTE core inflates app traffic but not DNS (§4.2.2 Case 2).
	if isp == "Jio 4G" && netType != "WiFi" {
		f *= jioAppMedianMS / (jioDNSMedianMS * 1.25)
	}
	ms := baseMS * f * math.Exp(rng.NormFloat64()*0.55)
	if ms < 3 {
		ms = 3
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// dnsRTT samples one DNS RTT per the Figure 10/11 calibration.
func dnsRTT(rng *rand.Rand, netType, isp string) time.Duration {
	var ms float64
	switch netType {
	case "WiFi":
		ms = wifiDNSMedianMS * math.Exp(rng.NormFloat64()*0.5)
	case "3G":
		ms = g3DNSMedianMS * math.Exp(rng.NormFloat64()*0.5)
	case "2G":
		ms = g2DNSMedianMS * math.Exp(rng.NormFloat64()*0.5)
	default: // LTE
		spec, ok := lteSpecFor(isp)
		median := float64(defaultLTEDNSMedianMS)
		if ok {
			median = spec.MedianMS
		}
		if ok && spec.FastShare > 0 && rng.Float64() < spec.FastShare {
			// Singtel's Tri-band 4G+ floor: single-digit first hops.
			ms = 3 + rng.Float64()*7
		} else if ok && spec.FloorMS > 0 {
			// Cricket / U.S. Cellular: hard floor near 43 ms.
			ms = spec.FloorMS + (median-spec.FloorMS)*math.Exp(rng.NormFloat64()*0.6)
		} else {
			ms = median * math.Exp(rng.NormFloat64()*0.45)
		}
	}
	if ms < 2 {
		ms = 2
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func lteSpecFor(isp string) (lteISPSpec, bool) {
	for _, s := range lteISPs {
		if s.Name == isp {
			return s, true
		}
	}
	return lteISPSpec{}, false
}

// domainAddr maps a domain to one of its stable fake addresses; each
// domain resolves to a few IPs (the dataset saw ~3 IPs per domain) and
// mostly standard ports.
func domainAddr(domain string, rng *rand.Rand) netip.AddrPort {
	h := fnv.New32a()
	h.Write([]byte(domain))
	ipCount := int(h.Sum32()%3) + 1
	h.Write([]byte{byte(rng.Intn(ipCount))})
	v := h.Sum32()
	addr := netip.AddrFrom4([4]byte{byte(v>>24)%223 + 1, byte(v >> 16), byte(v >> 8), byte(v)%254 + 1})
	var port uint16
	switch p := rng.Float64(); {
	case p < 0.72:
		port = 443
	case p < 0.90:
		port = 80
	default:
		port = uint16(1024 + v%50000)
	}
	return netip.AddrPortFrom(addr, port)
}

// dnsServerAddr returns one of the ISP's resolver addresses (the
// dataset saw 943+ distinct DNS servers).
func dnsServerAddr(isp string, rng *rand.Rand) netip.AddrPort {
	h := fnv.New32a()
	h.Write([]byte(isp))
	h.Write([]byte{byte(rng.Intn(4))})
	v := h.Sum32()
	addr := netip.AddrFrom4([4]byte{byte(v>>24)%223 + 1, byte(v >> 16), byte(v >> 8), byte(v)%254 + 1})
	return netip.AddrPortFrom(addr, 53)
}

// TCP returns the app-traffic records.
func (ds *Dataset) TCP() []measure.Record {
	return filterKind(ds.Records, measure.KindTCP)
}

// DNS returns the DNS records.
func (ds *Dataset) DNS() []measure.Record {
	return filterKind(ds.Records, measure.KindDNS)
}

func filterKind(recs []measure.Record, k measure.Kind) []measure.Record {
	var out []measure.Record
	for _, r := range recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// ScaledThreshold converts a full-scale count threshold (e.g. Figure
// 6's 1K cutoff) to this dataset's scale, with a floor of 2.
func (ds *Dataset) ScaledThreshold(fullScale int) int {
	t := int(math.Round(float64(fullScale) * ds.Scale))
	if t < 2 {
		t = 2
	}
	return t
}

// Summary describes the dataset the way §4.2.1 does. A record or
// device that carries no domain, country or model adds none: the empty
// string is not a value.
func (ds *Dataset) Summary() string {
	tcp, dns := 0, 0
	ips := make(map[netip.Addr]struct{})
	domains := make(map[string]struct{})
	ports := make(map[uint16]struct{})
	servers := make(map[netip.AddrPort]struct{})
	for _, r := range ds.Records {
		if r.Kind == measure.KindTCP {
			tcp++
			ips[r.Dst.Addr()] = struct{}{}
			ports[r.Dst.Port()] = struct{}{}
			addKnown(domains, r.Domain)
		} else {
			dns++
			servers[r.Dst] = struct{}{}
		}
	}
	countries := make(map[string]struct{})
	models := make(map[string]struct{})
	locations := 0
	for _, d := range ds.Devices {
		addKnown(countries, d.Country)
		addKnown(models, d.Model)
		locations += len(d.Locations)
	}
	return fmt.Sprintf(
		"dataset: %d measurements (%d TCP, %d DNS) from %d devices (%d models), "+
			"%d countries, %d locations; %d dst IPs, %d domains, %d ports, %d DNS servers (scale %.2f)",
		len(ds.Records), tcp, dns, len(ds.Devices), len(models),
		len(countries), locations, len(ips), len(domains), len(ports), len(servers), ds.Scale)
}

// addKnown adds v to set unless v is empty.
func addKnown(set map[string]struct{}, v string) {
	if v != "" {
		set[v] = struct{}{}
	}
}
