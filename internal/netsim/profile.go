package netsim

import (
	"net/netip"
	"sort"
	"sync"
	"time"
)

// TimelineStep is one scripted condition change: At is the offset from
// the timeline's start after which the destination's link becomes Link.
type TimelineStep struct {
	At   time.Duration
	Link LinkParams
}

// ConditionProfile bundles the path conditions of one scenario: the
// app-server link, an optional resolver-path override, and a scripted
// timeline of mid-run link changes. Profiles compose the existing
// LinkParams axes (delay, jitter, per-direction loss, asymmetric
// bandwidth, shared bottleneck queues) into the adverse regimes the
// paper's measurements were built for — lossy cellular, bufferbloat,
// handover, flaky DNS.
//
// The envelope fields state what a truthful measurement pipeline must
// report under the profile: they are derived from the injected physics
// (base RTT through worst timeline phase, plus jitter) widened by
// sketch error and real-clock scheduling slack. The scenario matrix
// (experiments.RunScenarioMatrix, run by `paperbench -exp scenarios`)
// asserts measured medians land inside them.
type ConditionProfile struct {
	// Link shapes every phone <-> app-server path in the scenario.
	Link LinkParams
	// DNS optionally shapes the resolver path; nil means the resolver
	// shares Link.
	DNS *LinkParams
	// Timeline scripts mid-run changes to the app-server links
	// (handover). Offsets are relative to ApplyProfile/StartTimeline.
	Timeline []TimelineStep
	// RTTLo/RTTHi bound the TCP connect-RTT median a truthful pipeline
	// must measure under this profile.
	RTTLo, RTTHi time.Duration
	// DNSLo/DNSHi bound the DNS RTT median; both zero means no DNS
	// envelope applies (e.g. a blackhole regime produces no DNS
	// measurements at all).
	DNSLo, DNSHi time.Duration
}

// envelope converts a link's physics into a truthfulness envelope for
// the measured RTT median: at least the jitter-free RTT minus clock
// granularity, at most RTT plus full two-way jitter plus slack for
// engine processing and real-clock scheduling.
func envelope(l LinkParams, slack time.Duration) (lo, hi time.Duration) {
	lo = l.RTT() - 2*time.Millisecond
	if lo < 0 {
		lo = 0
	}
	return lo, l.RTT() + 2*l.Jitter + slack
}

// measurementSlack is the allowance added to every profile's upper
// envelope for costs that are real but not part of the injected link:
// engine relay work, goroutine scheduling on a loaded CI host, sketch
// relative error. Deliberately generous — envelope checks exist to
// catch measurements that stop tracking the link, not to benchmark the
// host.
const measurementSlack = 75 * time.Millisecond

// ProfileWiFi is the clean baseline: a quiet home WLAN.
func ProfileWiFi() ConditionProfile {
	link := LinkParams{Delay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond}
	lo, hi := envelope(link, measurementSlack)
	return ConditionProfile{Link: link, RTTLo: lo, RTTHi: hi}
}

// ProfileLossyCellular is a marginal cellular link: high base RTT, wide
// jitter, and per-direction random loss that triggers occasional SYN
// retransmissions. The median stays truthful because loss is rare
// enough that RTO-inflated samples sit in the tail.
func ProfileLossyCellular() ConditionProfile {
	link := LinkParams{
		Delay:  60 * time.Millisecond,
		Jitter: 25 * time.Millisecond,
		Loss:   0.02,
	}
	lo, hi := envelope(link, measurementSlack)
	return ConditionProfile{Link: link, RTTLo: lo, RTTHi: hi}
}

// ProfileBufferbloat is a deep-buffered bottleneck: moderate base RTT
// but a shared serialisation queue per direction, so queue delay grows
// with offered load and handshakes measure it. The upper envelope
// budgets for the queue a saturating workload can build in a scenario
// cell; an idle cell simply measures near the base RTT.
func ProfileBufferbloat() ConditionProfile {
	link := LinkParams{
		Delay:       20 * time.Millisecond,
		Jitter:      5 * time.Millisecond,
		Down:        Mbps(4),
		Up:          Mbps(1.5),
		SharedQueue: true,
	}
	lo, hi := envelope(link, measurementSlack)
	return ConditionProfile{Link: link, RTTLo: lo, RTTHi: hi + 2*time.Second}
}

// ProfileAsymmetricUplink is an ADSL-shaped path: plenty of downlink,
// a thin shared uplink. Upload-heavy workloads queue behind the thin
// direction and inflate RTTs; download-heavy ones barely notice.
func ProfileAsymmetricUplink() ConditionProfile {
	link := LinkParams{
		Delay:       25 * time.Millisecond,
		Jitter:      5 * time.Millisecond,
		Down:        Mbps(8),
		Up:          Mbps(0.75),
		SharedQueue: true,
	}
	lo, hi := envelope(link, measurementSlack)
	return ConditionProfile{Link: link, RTTLo: lo, RTTHi: hi + 2*time.Second}
}

// ProfileHandover starts on a fast LTE-like link and degrades mid-run
// to a slow cell edge — a scripted SetLink that established
// connections and in-flight datagrams must feel, not just new dials.
// The envelope spans both phases; where the median lands inside it
// depends on how much of the run preceded the switch.
func ProfileHandover() ConditionProfile {
	before := LinkParams{Delay: 20 * time.Millisecond, Jitter: 5 * time.Millisecond}
	after := LinkParams{Delay: 80 * time.Millisecond, Jitter: 10 * time.Millisecond}
	lo, _ := envelope(before, measurementSlack)
	_, hi := envelope(after, measurementSlack)
	return ConditionProfile{
		Link:     before,
		Timeline: []TimelineStep{{At: 500 * time.Millisecond, Link: after}},
		RTTLo:    lo,
		RTTHi:    hi,
	}
}

// ProfileDNSFlaky leaves the TCP path healthy but puts the resolver
// behind a slow, lossy link: a quarter of DNS trips drop (so
// transactions time out and retry at the stub), and the ones that
// complete measure the elevated resolver RTT.
func ProfileDNSFlaky() ConditionProfile {
	link := LinkParams{Delay: 15 * time.Millisecond, Jitter: 3 * time.Millisecond}
	dns := LinkParams{Delay: 60 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.25}
	lo, hi := envelope(link, measurementSlack)
	dlo, dhi := envelope(dns, measurementSlack)
	return ConditionProfile{
		Link:  link,
		DNS:   &dns,
		RTTLo: lo, RTTHi: hi,
		DNSLo: dlo, DNSHi: dhi,
	}
}

// ProfileDNSBlackhole is the 100%-timeout regime: every datagram to
// the resolver vanishes, so each DNS transaction burns its full
// timeout and produces no measurement — the regime that must not
// starve the relay's UDP pool or lose datagrams from the accounting.
// TCP to literal addresses stays healthy.
func ProfileDNSBlackhole() ConditionProfile {
	link := LinkParams{Delay: 15 * time.Millisecond, Jitter: 3 * time.Millisecond}
	dns := LinkParams{Delay: 15 * time.Millisecond, Loss: 1.0}
	lo, hi := envelope(link, measurementSlack)
	return ConditionProfile{
		Link:  link,
		DNS:   &dns,
		RTTLo: lo, RTTHi: hi,
	}
}

// StartTimeline plays a scripted sequence of link changes against the
// given destinations on the network's clock, firing each step once its
// offset from the call elapses. Steps are applied in At order. The
// returned stop cancels steps that have not fired yet; it never undoes
// applied ones. The goroutine also exits when the network closes.
func (n *Network) StartTimeline(dsts []netip.Addr, steps []TimelineStep) (stop func()) {
	if len(steps) == 0 || len(dsts) == 0 {
		return func() {}
	}
	ordered := append([]TimelineStep(nil), steps...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	stopCh := make(chan struct{})
	var once sync.Once
	start := n.clk.Nanos()
	go func() {
		for _, st := range ordered {
			d := st.At - time.Duration(n.clk.Nanos()-start)
			if d > 0 {
				select {
				case <-n.clk.After(d):
				case <-n.done:
					return
				case <-stopCh:
					return
				}
			}
			select {
			case <-stopCh:
				return
			default:
			}
			for _, dst := range dsts {
				n.SetLink(dst, st.Link)
			}
		}
	}()
	return func() { once.Do(func() { close(stopCh) }) }
}

// ApplyProfile installs a profile on a network: the app-server link for
// every destination in dsts, the resolver link for dns when the profile
// overrides it, and the timeline (started immediately). The returned
// stop cancels pending timeline steps; conditions already applied stay
// in force.
func ApplyProfile(n *Network, p ConditionProfile, dsts []netip.Addr, dns netip.Addr) (stop func()) {
	for _, d := range dsts {
		n.SetLink(d, p.Link)
	}
	if dns.IsValid() {
		dnsLink := p.Link
		if p.DNS != nil {
			dnsLink = *p.DNS
		}
		n.SetLink(dns, dnsLink)
	}
	return n.StartTimeline(dsts, p.Timeline)
}
