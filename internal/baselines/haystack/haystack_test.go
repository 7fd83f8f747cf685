package haystack

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/resource"
)

func TestConfigIsThePollBasedAblation(t *testing.T) {
	c := Config()
	if c.ReadMode != engine.ReadPoll {
		t.Error("tunnel reads must be poll-based (§3.1 contrast)")
	}
	if c.MainLoopPoll <= 0 {
		t.Error("main loop must be poll-cycled (Table 3 mechanism)")
	}
	if c.WriteScheme != engine.DirectWrite {
		t.Error("writes must be direct (§3.5.1 contrast)")
	}
	if c.Mapping != engine.MapCache {
		t.Error("mapping must be cache-based (§3.3 contrast)")
	}
	if c.Protect != engine.ProtectPerSocket {
		t.Error("protect must be per-socket (§3.5.2 contrast)")
	}
	if c.PerPacketCost <= 0 {
		t.Error("content inspection must be modelled (Table 4)")
	}
}

func TestMeterMemoryBaseline(t *testing.T) {
	u := resource.NewMeter(BaseMemoryMB).Report(1)
	if u.MemoryMB < 100 {
		t.Errorf("Haystack baseline memory %.0f MB, Table 4 reports 148", u.MemoryMB)
	}
}
