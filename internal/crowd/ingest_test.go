package crowd

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
)

func ingestRec(kind measure.Kind, app, device, netType, isp, country string, ms float64) measure.Record {
	return measure.Record{
		Kind: kind, App: app, Device: device, NetType: netType,
		ISP: isp, Country: country,
		RTT: time.Duration(ms * float64(time.Millisecond)),
		At:  DeployStart,
	}
}

func TestIngestReconstructsDevices(t *testing.T) {
	recs := []measure.Record{
		ingestRec(measure.KindTCP, "com.app.a", "phone-1", "WiFi", "WiFi HK", "Hong Kong", 40),
		ingestRec(measure.KindTCP, "com.app.a", "phone-1", "LTE", "3 HK", "Hong Kong", 55),
		ingestRec(measure.KindDNS, "system.dns", "phone-1", "LTE", "3 HK", "Hong Kong", 50),
		ingestRec(measure.KindTCP, "com.app.b", "phone-2", "3G", "Cricket", "USA", 120),
		ingestRec(measure.KindTCP, "com.app.b", "", "WiFi", "", "", 30), // anonymous
	}
	ds := Ingest(recs)
	if len(ds.Records) != len(recs) {
		t.Fatalf("records: %d", len(ds.Records))
	}
	if len(ds.Devices) != 3 {
		t.Fatalf("devices: %d (%+v)", len(ds.Devices), ds.Devices)
	}
	d1 := deviceByID(ds, "phone-1")
	if d1 == nil {
		t.Fatal("phone-1 missing")
	}
	if d1.Country != "Hong Kong" || d1.CellISP != "3 HK" || d1.Gen != "LTE" {
		t.Errorf("phone-1 metadata: %+v", d1)
	}
	if d1.Activity != 3 {
		t.Errorf("phone-1 activity: %d", d1.Activity)
	}
	if want := 1.0 / 3.0; d1.WiFiShare < want-0.01 || d1.WiFiShare > want+0.01 {
		t.Errorf("phone-1 wifi share: %f", d1.WiFiShare)
	}
	d2 := deviceByID(ds, "phone-2")
	if d2 == nil || d2.Gen != "3G" || d2.CellISP != "Cricket" {
		t.Errorf("phone-2 metadata: %+v", d2)
	}
	if deviceByID(ds, anonDeviceID) == nil {
		t.Error("anonymous records got no device")
	}
}

// The ingested dataset must flow through the §4.2 analysis pipeline:
// summary, contribution buckets, per-app aggregation.
func TestIngestFeedsAnalysis(t *testing.T) {
	var recs []measure.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, ingestRec(measure.KindTCP, "com.app.hot", "phone-1", "LTE", "Verizon", "USA", 45))
	}
	for i := 0; i < 5; i++ {
		recs = append(recs, ingestRec(measure.KindDNS, "system.dns", "phone-1", "LTE", "Verizon", "USA", 46))
	}
	ds := Ingest(recs)
	sum := ds.Summary()
	if !strings.Contains(sum, "45 measurements (40 TCP, 5 DNS) from 1 devices") {
		t.Errorf("summary: %s", sum)
	}
	b := Fig6aUsers(ds)
	if b.Over10K+b.K5to10+b.K1to5+b.H100to1K == 0 {
		t.Errorf("device fell out of every contribution bucket: %+v", b)
	}
	top := Fig7TopCountries(ds, 5)
	if len(top) != 1 || top[0].Name != "USA" || top[0].Devices != 1 {
		t.Errorf("countries: %+v", top)
	}
}

// Records that name no domain and no country — an app that connects
// to a literal IP on a phone that stamps no country — summarise as 0
// domains and 0 countries, not 1 each for the empty string.
func TestSummaryCountsNoEmptyValues(t *testing.T) {
	var recs []measure.Record
	for i := 0; i < 3; i++ {
		recs = append(recs, ingestRec(measure.KindTCP, "com.app.ip", "phone-1", "WiFi", "", "", 20))
	}
	sum := Ingest(recs).Summary()
	for _, want := range []string{"0 countries", "0 domains"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary lacks %q: %s", want, sum)
		}
	}
}

// Ingest must be deterministic: same records, same dataset, regardless
// of internal map iteration.
func TestIngestDeterministic(t *testing.T) {
	recs := []measure.Record{
		ingestRec(measure.KindTCP, "a", "p1", "LTE", "ispA", "X", 10),
		ingestRec(measure.KindTCP, "a", "p1", "LTE", "ispB", "Y", 10), // tied ISP counts
		ingestRec(measure.KindTCP, "a", "p2", "WiFi", "w", "X", 10),
	}
	first := Ingest(recs)
	for i := 0; i < 10; i++ {
		again := Ingest(recs)
		if len(again.Devices) != len(first.Devices) {
			t.Fatalf("device count varies: %d vs %d", len(again.Devices), len(first.Devices))
		}
		for j := range first.Devices {
			if !reflect.DeepEqual(again.Devices[j], first.Devices[j]) {
				t.Fatalf("device %d varies:\n%+v\n%+v", j, again.Devices[j], first.Devices[j])
			}
		}
	}
}

// deviceByID finds a device in ds, or nil.
func deviceByID(ds *Dataset, id string) *Device {
	for _, d := range ds.Devices {
		if d.ID == id {
			return d
		}
	}
	return nil
}

// Ingest keeps the slice it is given as the dataset's records: a copy
// would hold the dataset in memory twice.
func TestIngestAliasesRecords(t *testing.T) {
	recs := []measure.Record{
		ingestRec(measure.KindTCP, "a", "p1", "LTE", "ispA", "X", 10),
		ingestRec(measure.KindDNS, "", "p2", "WiFi", "w", "Y", 20),
	}
	ds := Ingest(recs)
	if len(ds.Records) != len(recs) || &ds.Records[0] != &recs[0] {
		t.Fatal("Ingest copied the records it was given")
	}
}
