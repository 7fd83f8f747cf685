package engine

import (
	"net/netip"
	"time"

	"repro/internal/measure"
)

// The network tags every engine record carries: the crowd dataset's
// dimensions (§4), fixed for the simulated phone's one network.
const (
	recordNetType = "WiFi"
	recordISP     = "SimNet"
	recordCountry = "SG"
)

// record is the engine's single measurement emit point: every
// opportunistic RTT — TCP connect() RTTs from the relay workers
// (tcp.go) and DNS transaction RTTs from the pooled UDP relay
// (dns.go) — funnels through here into the store. The store appends
// it and broadcasts it, in the same mutex hold, to any live
// subscribers over their bounded rings (measure/broadcast.go), so the
// push pipeline observes records in exactly the order the snapshot
// accessors do. With no subscribers attached the broadcast is a
// nil-slice range: this path costs the relay workers nothing beyond
// the store append it always paid.
func (e *Engine) record(kind measure.Kind, app string, uid int, dst netip.AddrPort, domain string, rtt time.Duration) {
	e.store.Add(measure.Record{
		Kind:    kind,
		App:     app,
		UID:     uid,
		Dst:     dst,
		Domain:  domain,
		RTT:     rtt,
		At:      e.clk.Now(),
		NetType: recordNetType,
		ISP:     recordISP,
		Country: recordCountry,
	})
}
