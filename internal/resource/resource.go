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

// The cost model: constants representative of a mid-2010s phone SoC.
const (
	// perWakeup is the cost of one futile poll wakeup (syscall +
	// scheduler round trip).
	perWakeup = 60 * time.Microsecond
	// perPacket is the per-packet relay processing cost (parse, map
	// lookup, enqueue, state machine).
	perPacket = 25 * time.Microsecond
	// perKByte is the copy cost per kilobyte moved.
	perKByte = 2 * time.Microsecond
	// perInspectedPacket is extra work for traffic-content inspection
	// (zero for MopEye, which deliberately performs none — §5).
	perInspectedPacket = 75 * time.Microsecond
	// perConnKB is the memory each concurrent connection retains.
	perConnKB = 130
)

// Meter accumulates work counters. The engine bumps them on every
// packet, so they are atomics.
type Meter struct {
	baseMemMB float64

	wakeups   atomic.Int64
	packets   atomic.Int64
	bytes     atomic.Int64
	inspected atomic.Int64
	maxConns  atomic.Int64
}

// NewMeter creates a meter with the given baseline memory footprint in
// MiB.
func NewMeter(baseMemMB float64) *Meter {
	return &Meter{baseMemMB: baseMemMB}
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
	CPUPercent float64 // over the run duration
	MemoryMB   float64
}

// Report converts the counters into a Usage over a run of the given
// wall-clock duration. Table 4 extrapolates battery from CPUPercent.
func (m *Meter) Report(run time.Duration) Usage {
	wakeups, packets, bytes, inspected := m.Counters()
	cpu := float64(wakeups)*perWakeup.Seconds() +
		float64(packets)*perPacket.Seconds() +
		float64(bytes)/1024*perKByte.Seconds() +
		float64(inspected)*perInspectedPacket.Seconds()
	var u Usage
	if run > 0 {
		u.CPUPercent = cpu / run.Seconds() * 100
	}
	u.MemoryMB = m.baseMemMB + float64(m.maxConns.Load())*perConnKB/1024
	return u
}

// Counters returns the raw counted work, for tests.
func (m *Meter) Counters() (wakeups, packets, bytes, inspected int64) {
	return m.wakeups.Load(), m.packets.Load(), m.bytes.Load(), m.inspected.Load()
}
