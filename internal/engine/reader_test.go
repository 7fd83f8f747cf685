package engine

import (
	"testing"
	"time"
)

// The adaptive read mode's sleep schedule, unit-tested directly: the
// seed shipped with `_ = consecutive` — the burst counter was tracked
// and discarded, so ReadPollAdaptive behaved identically to a fixed
// 1 ms poll. These tests pin the documented burst-then-back-off
// behaviour.

func TestPollPolicyBacksOffWhenIdle(t *testing.T) {
	p := newPollPolicy(time.Millisecond, 100*time.Millisecond, 3)
	// Never any traffic: no burst budget, every empty poll sleeps the
	// long interval immediately.
	for i := 0; i < 5; i++ {
		if d := p.onEmpty(); d != 100*time.Millisecond {
			t.Fatalf("idle poll %d slept %v, want the long interval", i, d)
		}
	}
}

func TestPollPolicyBurstsAfterActivity(t *testing.T) {
	p := newPollPolicy(time.Millisecond, 100*time.Millisecond, 3)
	p.onSuccess()
	// The next burstMax empty polls stay on the short interval...
	for i := 0; i < 3; i++ {
		if d := p.onEmpty(); d != time.Millisecond {
			t.Fatalf("burst poll %d slept %v, want the short interval", i, d)
		}
	}
	// ...then the poller backs off.
	if d := p.onEmpty(); d != 100*time.Millisecond {
		t.Fatalf("post-burst poll slept %v, want the long interval", d)
	}
}

// TestPollPolicyNegativeBurstNormalised: a negative budget grants no
// short polls, like a zero one.
func TestPollPolicyNegativeBurstNormalised(t *testing.T) {
	p := newPollPolicy(time.Millisecond, 50*time.Millisecond, -3)
	p.onSuccess()
	if d := p.onEmpty(); d != 50*time.Millisecond {
		t.Fatalf("negative burstMax slept %v, want the long interval", d)
	}
}

// TestPollPolicyBackOffSchedule pins the full schedule end to end:
// success → burstMax shorts → long, long, ... → success refills.
func TestPollPolicyBackOffSchedule(t *testing.T) {
	p := newPollPolicy(time.Millisecond, 80*time.Millisecond, 2)
	want := []time.Duration{
		80 * time.Millisecond, // idle from the start: no budget
	}
	var got []time.Duration
	got = append(got, p.onEmpty())
	p.onSuccess()
	want = append(want,
		time.Millisecond, time.Millisecond, // the burst window
		80*time.Millisecond, 80*time.Millisecond, // backed off
	)
	for i := 0; i < 4; i++ {
		got = append(got, p.onEmpty())
	}
	p.onSuccess()
	want = append(want, time.Millisecond) // refilled
	got = append(got, p.onEmpty())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule step %d slept %v, want %v (full schedule %v)", i, got[i], want[i], got)
		}
	}
}

func TestPollPolicySuccessRefillsBurst(t *testing.T) {
	p := newPollPolicy(time.Millisecond, 100*time.Millisecond, 2)
	p.onSuccess()
	if d := p.onEmpty(); d != time.Millisecond {
		t.Fatalf("first empty poll slept %v", d)
	}
	// Activity mid-burst refills the budget in full.
	p.onSuccess()
	for i := 0; i < 2; i++ {
		if d := p.onEmpty(); d != time.Millisecond {
			t.Fatalf("refilled burst poll %d slept %v", i, d)
		}
	}
	if d := p.onEmpty(); d != 100*time.Millisecond {
		t.Fatalf("exhausted burst slept %v, want the long interval", d)
	}
}
