package crowd

import (
	"fmt"

	"repro/internal/measure"
)

// This file is the collector-side ingestion path: where the generator
// (generate.go) stands in for the deployment that cannot be re-run,
// Ingest builds a Dataset from measurements that actually happened —
// the batches a live Phone's Collector uploads, or a JSON Lines export
// loaded back from disk. The analysis pipeline (analyze.go, cases.go)
// consumes records and device metadata only, so a dataset assembled
// here flows through every §4.2 table and figure unchanged.

// anonDeviceID labels records that arrive without a device attribution
// (direct engine exports that skipped a Collector).
const anonDeviceID = "device-anon"

// Ingest assembles a Dataset from collected measurement records.
// Device metadata — the paper's per-install registration data — is
// reconstructed from the records themselves: one Device per distinct
// Record.Device value, its country/ISP/network mix taken from the
// records it contributed. Scale is set proportionally to the paper's
// dataset so the analysis thresholds (Figure 6 buckets, Table 5
// cutoffs) scale the same way they do for generated datasets.
func Ingest(recs []measure.Record) *Dataset {
	ds := &Dataset{
		Records: append([]measure.Record(nil), recs...),
		Scale:   float64(len(recs)) / float64(PaperTotalMeasurements),
	}

	type devAgg struct {
		count   int
		wifi    int
		country map[string]int
		cellISP map[string]int
		wifiISP map[string]int
		cellGen map[string]int
	}
	aggs := make(map[string]*devAgg)
	order := []string{} // deterministic device order: first appearance
	for _, r := range recs {
		id := r.Device
		if id == "" {
			id = anonDeviceID
		}
		a := aggs[id]
		if a == nil {
			a = &devAgg{
				country: make(map[string]int), cellISP: make(map[string]int),
				wifiISP: make(map[string]int), cellGen: make(map[string]int),
			}
			aggs[id] = a
			order = append(order, id)
		}
		a.count++
		if r.Country != "" {
			a.country[r.Country]++
		}
		if r.NetType == "WiFi" {
			a.wifi++
			if r.ISP != "" {
				a.wifiISP[r.ISP]++
			}
		} else {
			if r.ISP != "" {
				a.cellISP[r.ISP]++
			}
			if r.NetType != "" {
				a.cellGen[r.NetType]++
			}
		}
	}

	for i, id := range order {
		a := aggs[id]
		d := &Device{
			ID:       id,
			Country:  mode(a.country),
			Model:    fmt.Sprintf("reported-%d", i+1),
			CellISP:  mode(a.cellISP),
			WiFiISP:  mode(a.wifiISP),
			Gen:      mode(a.cellGen),
			Activity: a.count,
		}
		if d.WiFiISP == "" && d.Country != "" {
			d.WiFiISP = "WiFi " + d.Country
		}
		if d.Gen == "" {
			d.Gen = "LTE"
		}
		d.WiFiShare = float64(a.wifi) / float64(a.count)
		ds.Devices = append(ds.Devices, d)
	}
	return ds
}

// mode returns the most frequent key, ties broken lexicographically so
// ingestion is deterministic regardless of map iteration order.
func mode(m map[string]int) string {
	best, bestN := "", 0
	for k, n := range m {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}
