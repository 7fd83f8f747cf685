// Package resource models the phone-side resource consumption that
// Table 4 of the paper reports (CPU, battery, memory) from counters the
// engine exposes: thread wakeups, packets and bytes relayed, and
// retained buffer sizes.
//
// We cannot meter a real battery; instead a fixed cost model converts
// counted work into CPU time and drain. The model's constants are
// calibrated so that the *mechanisms* the paper identifies dominate: a
// relay that "has to keep executing the VPN read() regardless [of]
// whether there are app packets" (Haystack) burns CPU on empty wakeups,
// while a blocking-read relay (MopEye) pays only per packet. The output
// ranking therefore follows from counted behaviour, not from hardcoded
// results.
package resource

import (
	"sync/atomic"
	"time"
)

// CostConstants convert counted work into CPU time.
type CostConstants struct {
	// PerWakeup is the cost of one futile poll wakeup (syscall +
	// scheduler round trip).
	PerWakeup time.Duration
	// PerPacket is the per-packet relay processing cost (parse, map
	// lookup, enqueue, state machine).
	PerPacket time.Duration
	// PerKByte is the copy cost per kilobyte moved.
	PerKByte time.Duration
	// PerInspectedPacket is extra work for traffic-content inspection
	// (zero for MopEye, which deliberately performs none — §5).
	PerInspectedPacket time.Duration
}

// DefaultCosts returns constants representative of a mid-2010s phone
// SoC.
func DefaultCosts() CostConstants {
	return CostConstants{
		PerWakeup:          60 * time.Microsecond,
		PerPacket:          25 * time.Microsecond,
		PerKByte:           2 * time.Microsecond,
		PerInspectedPacket: 75 * time.Microsecond,
	}
}

// Meter accumulates work counters. The engine bumps them on every
// packet, so they are atomics.
type Meter struct {
	costs     CostConstants
	baseMemMB float64
	perConnKB float64

	wakeups   atomic.Int64
	packets   atomic.Int64
	bytes     atomic.Int64
	inspected atomic.Int64
	maxConns  atomic.Int64
}

// NewMeter creates a meter with the given cost constants and baseline
// memory footprint in MiB.
func NewMeter(costs CostConstants, baseMemMB float64) *Meter {
	return &Meter{costs: costs, baseMemMB: baseMemMB, perConnKB: 130}
}

// AddWakeups records n futile poll wakeups.
func (m *Meter) AddWakeups(n int64) { m.wakeups.Add(n) }

// AddPackets records n relayed packets carrying total bytes.
func (m *Meter) AddPackets(n, bytes int64) {
	m.packets.Add(n)
	m.bytes.Add(bytes)
}

// AddInspected records n packets subjected to content inspection.
func (m *Meter) AddInspected(n int64) { m.inspected.Add(n) }

// ObserveConns tracks the high-water mark of concurrent connections for
// memory accounting.
func (m *Meter) ObserveConns(n int) {
	for {
		old := m.maxConns.Load()
		if int64(n) <= old || m.maxConns.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

// Usage is the resource report of one run.
type Usage struct {
	CPUSeconds float64
	CPUPercent float64 // over the run duration
	BatteryPct float64 // drain attributed to the relay over the run
	MemoryMB   float64
}

// Report converts the counters into a Usage over a run of the given
// wall-clock duration. Battery uses a simple linear model: a sustained
// full core costs ~20% battery per hour on the reference device, so
// drain = CPU-seconds / 3600 * 20.
func (m *Meter) Report(run time.Duration) Usage {
	wakeups, packets, bytes, inspected := m.Counters()
	cpu := float64(wakeups)*m.costs.PerWakeup.Seconds() +
		float64(packets)*m.costs.PerPacket.Seconds() +
		float64(bytes)/1024*m.costs.PerKByte.Seconds() +
		float64(inspected)*m.costs.PerInspectedPacket.Seconds()
	u := Usage{CPUSeconds: cpu}
	if run > 0 {
		u.CPUPercent = cpu / run.Seconds() * 100
	}
	u.BatteryPct = cpu / 3600 * 20
	u.MemoryMB = m.baseMemMB + float64(m.maxConns.Load())*m.perConnKB/1024
	return u
}

// Counters returns the raw counted work, for tests.
func (m *Meter) Counters() (wakeups, packets, bytes, inspected int64) {
	return m.wakeups.Load(), m.packets.Load(), m.bytes.Load(), m.inspected.Load()
}
