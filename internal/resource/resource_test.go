package resource

import (
	"testing"
	"time"
)

func TestWakeupsDominatePollingRelay(t *testing.T) {
	// The Table 4 mechanism: a poll-based relay accumulates empty
	// wakeups that a blocking-read relay never pays.
	polling := NewMeter(10)
	blocking := NewMeter(10)
	// Same traffic.
	polling.AddPackets(10000, 10000*1460)
	blocking.AddPackets(10000, 10000*1460)
	// Polling adds 1 kHz of futile wakeups over 10 s.
	polling.AddWakeups(10000)
	run := 10 * time.Second
	p, b := polling.Report(run), blocking.Report(run)
	if p.CPUPercent <= b.CPUPercent {
		t.Errorf("polling CPU %.2f%% not above blocking %.2f%%", p.CPUPercent, b.CPUPercent)
	}
}

func TestInspectionCost(t *testing.T) {
	inspecting := NewMeter(10)
	plain := NewMeter(10)
	inspecting.AddPackets(1000, 1000*1460)
	plain.AddPackets(1000, 1000*1460)
	inspecting.AddInspected(1000)
	run := time.Second
	if inspecting.Report(run).CPUPercent <= plain.Report(run).CPUPercent {
		t.Error("inspection cost not charged")
	}
}

func TestMemoryModel(t *testing.T) {
	m := NewMeter(12)
	u := m.Report(time.Second)
	if u.MemoryMB != 12 {
		t.Errorf("baseline memory: %v", u.MemoryMB)
	}
	m.ObserveConns(8)
	u = m.Report(time.Second)
	if want := 12 + 8*130.0/1024; u.MemoryMB != want {
		t.Errorf("memory after 8 conns: %v, want %v", u.MemoryMB, want)
	}
}

func TestConnHighWaterMark(t *testing.T) {
	m := NewMeter(0)
	m.ObserveConns(5)
	m.ObserveConns(20)
	m.ObserveConns(3)
	u20 := m.Report(time.Second).MemoryMB
	m2 := NewMeter(0)
	m2.ObserveConns(3)
	if m2.Report(time.Second).MemoryMB >= u20 {
		t.Error("high-water mark not kept")
	}
}

func TestZeroRunDuration(t *testing.T) {
	m := NewMeter(5)
	m.AddPackets(100, 100)
	u := m.Report(0)
	if u.CPUPercent != 0 {
		t.Errorf("cpu%% with zero duration: %v", u.CPUPercent)
	}
}

func TestCounters(t *testing.T) {
	m := NewMeter(0)
	m.AddWakeups(3)
	m.AddPackets(4, 500)
	m.AddInspected(2)
	w, p, by, insp := m.Counters()
	if w != 3 || p != 4 || by != 500 || insp != 2 {
		t.Errorf("counters: %d %d %d %d", w, p, by, insp)
	}
}

func TestCPUScalesLinearly(t *testing.T) {
	m1 := NewMeter(0)
	m2 := NewMeter(0)
	m1.AddPackets(1000, 0)
	m2.AddPackets(2000, 0)
	r1 := m1.Report(time.Second).CPUPercent
	r2 := m2.Report(time.Second).CPUPercent
	if r2 < 1.9*r1 || r2 > 2.1*r1 {
		t.Errorf("not linear: %v vs %v", r1, r2)
	}
}
