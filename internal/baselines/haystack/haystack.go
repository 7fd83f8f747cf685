// Package haystack configures the relay engine as Haystack v1.0.0.8
// behaves, the VPN-relay baseline of Tables 3 and 4.
//
// Haystack is a traffic-inspection system, not a measurement tool; the
// paper compares against it because both relay all traffic through
// VpnService in user space. The relevant behavioural differences, each
// taken from the paper:
//
//   - sleep-polled tunnel reads with an adaptive ("intelligent
//     sleeping") strategy inherited from ToyVpn (§3.1) — it "has to
//     keep executing the VPN read() regardless [of] whether there are
//     app packets to be relayed or not" (§4.1.3);
//   - per-socket protect() calls (§3.5.2);
//   - cache-based packet-to-app mapping, which misattributes flows when
//     two apps share a server endpoint (§3.3);
//   - direct tunnel writes from the processing thread (§3.5.1);
//   - per-packet traffic content inspection, its reason to exist, which
//     costs CPU and memory (Table 4: 148 MB vs MopEye's 12 MB).
//
// Building the baseline as an engine configuration makes Table 3/4 an
// ablation: the performance gap is produced by the design choices, not
// asserted.
package haystack

import (
	"time"

	"repro/internal/engine"
	"repro/internal/resource"
)

// PollInterval is Haystack's effective sleep between empty tunnel
// polls (the upload-side gate). Its adaptive scheme bottoms out near
// this under bursty load.
const PollInterval = 60 * time.Millisecond

// MainLoopInterval is the processing loop's cycle, gating how often
// accumulated socket data is drained toward the app (the download-side
// gate). The 64 KiB socket buffer drained every cycle caps download
// throughput near the ~20 Mbps the paper measures.
const MainLoopInterval = 25 * time.Millisecond

// InspectionCostPerPacket is the content-inspection work per relayed
// packet.
const InspectionCostPerPacket = 120 * time.Microsecond

// BaseMemoryMB is Haystack's resident footprint before per-connection
// buffers (Table 4 measures 148 MB during a one-hour video).
const BaseMemoryMB = 140

// Config returns the Haystack-like engine configuration.
func Config() engine.Config {
	c := engine.Default()
	c.ReadMode = engine.ReadPoll
	c.PollInterval = PollInterval
	c.MainLoopPoll = MainLoopInterval
	c.WriteScheme = engine.DirectWrite
	c.Mapping = engine.MapCache
	c.Protect = engine.ProtectPerSocket
	c.BlockingConnectMeasure = true // it relays fine; it just doesn't measure
	c.DeferRegister = false
	c.PerPacketCost = InspectionCostPerPacket
	return c
}

// Meter returns a resource meter with Haystack's memory baseline.
func Meter() *resource.Meter {
	return resource.NewMeter(resource.DefaultCosts(), BaseMemoryMB)
}
