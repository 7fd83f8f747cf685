package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/measure"
)

// flowsSpec sizes a sequential short-flow workload: every operation is
// connect → 64 B echo → close, the paper's measurement trigger.
type flowsSpec struct {
	loopback     bool
	rttMillis    float64 // path RTT to every server when not loopback
	servers      int
	flows        int // per driver at scale 1
	resolveEvery int // Phone.Resolve before every Nth flow
	// ownServer makes driver d talk only to server d, so the i-th TCP
	// record toward a server pairs with the i-th sniffer sample.
	ownServer bool
	warm      int // warm-up flows per driver, in set-up
}

const flowPayload = 64

// maxUnmappedShare bounds unmapped records to 1 in this many flows.
const maxUnmappedShare = 20

type flowsJob struct {
	spec  flowsSpec
	flows int // per driver, timed
	warm  int // per driver, run in set-up so lazy initialisation is not timed
	ph    phone
	pools [drivers]*payloadPool
	// opened[d][a] counts the flows driver d opened as app a.
	opened [drivers][apps]int
	// connects[d] keeps driver d's app-observed connect latencies in
	// flow order (warm-up first), for pairing with the sniffer.
	connects [drivers][]float64
}

func buildFlows(spec flowsSpec) func(*pass) (job, error) {
	return func(p *pass) (job, error) {
		ph, err := newPhone(phoneSpec{
			servers:   echoServers(spec.servers, spec.rttMillis),
			workers:   1,
			loopback:  spec.loopback,
			rttMillis: spec.rttMillis,
			seed:      p.seed,
		}, p.tr)
		if err != nil {
			return nil, err
		}
		j := &flowsJob{spec: spec, flows: p.scaled(spec.flows), warm: spec.warm, ph: ph}
		for a := 0; a < apps; a++ {
			ph.InstallApp(baseUID+a, appName(a))
		}
		for d := range j.pools {
			j.pools[d] = newPayloadPool(p.seed*1000+int64(d), flowPayload)
			j.connects[d] = make([]float64, 0, j.warm+j.flows)
		}
		if t := bothDrivers(func(d int) tally { return j.drive(d, j.warm) }); t.failed > 0 {
			ph.Close()
			return nil, fmt.Errorf("%d of %d warm-up flows failed", t.failed, t.attempted)
		}
		return j, nil
	}
}

func (j *flowsJob) run() tally {
	t := bothDrivers(func(d int) tally { return j.drive(d, j.flows) })
	t.opName, t.latName = "flow (connect, 64 B echo, close)", "Conn.ConnectLatency as the app sees it"
	if j.spec.ownServer {
		t.latName = "connect latency minus the sniffer's SYN/SYN-ACK RTT for the same flow"
	}
	return t
}

// drive runs n sequential flows as driver d.
func (j *flowsJob) drive(d, n int) tally {
	t := tally{detail: map[string][]float64{}}
	buf := make([]byte, flowPayload)
	first := len(j.connects[d])
	for i := 0; i < n; i++ {
		a := i % apps
		srv := a % j.spec.servers
		if j.spec.ownServer {
			srv = d
		}
		if i%j.spec.resolveEvery == 0 {
			t0 := time.Now()
			if _, err := j.ph.Resolve(baseUID+a, serverDomain(srv)); err != nil {
				// The lookup belongs to this flow: a failed one fails it.
				t.attempted++
				t.failed++
				continue
			}
			t.detail["dns"] = append(t.detail["dns"], micros(time.Since(t0)))
		}
		t.attempted++
		f, err := j.ph.Connect(baseUID+a, serverAddr(srv))
		if err != nil {
			t.failed++
			continue
		}
		j.opened[d][a]++
		j.connects[d] = append(j.connects[d], micros(f.ConnectLatency()))
		msg := j.pools[d].next(flowPayload)
		_, werr := f.Write(msg)
		if werr != nil || f.ReadFull(buf) != nil || !bytes.Equal(buf, msg) {
			t.failed++
		}
		_ = f.Close() // phonestack.Conn.Close always returns nil
	}
	t.lat = j.connects[d][first:]
	return t
}

func (j *flowsJob) counters() counters { return phoneCounters(j.ph) }

// ready waits for the warm-up flows' records, settle for the timed ones'.
func (j *flowsJob) ready() error { return awaitRecords(j.ph, drivers*j.warm) }

func (j *flowsJob) settle(before counters) error {
	return awaitRecords(j.ph, before.eng.TCPMeasurements+drivers*j.flows)
}

// awaitRecords waits until the engine has stored want TCP measurements.
// The engine stores one after the flow's lazy mapping, off the app's
// path (§3.3), so the app can be done a moment before the store is.
func awaitRecords(ph phone, want int) error {
	for deadline := time.Now().Add(5 * time.Second); ph.EngineStats().TCPMeasurements < want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine stored %d TCP records, want %d", ph.EngineStats().TCPMeasurements, want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// verify checks the records the engine produced against what the
// drivers did, then — on the paced workload — replaces the tally's
// latency with connect overhead and adds the RTT error, both paired
// per flow with the wire sniffer.
func (j *flowsJob) verify(t *tally, before, after counters) error {
	if err := checkEngine(before, after); err != nil {
		return err
	}
	flows := drivers * j.flows
	lookups := drivers * int(math.Ceil(float64(j.flows)/float64(j.spec.resolveEvery)))
	if got := after.eng.TCPMeasurements - before.eng.TCPMeasurements; got != flows {
		return fmt.Errorf("engine.TCPMeasurements = %d, want %d", got, flows)
	}
	if got := after.eng.DNSMeasurements - before.eng.DNSMeasurements; got != lookups {
		return fmt.Errorf("engine.DNSMeasurements = %d, want %d", got, lookups)
	}
	// Attribution: no record may name the wrong app. A record may name
	// no app at all — lazy mapping runs after the app's handshake (§3.3),
	// so a flow this short can leave /proc/net before a mapper that had
	// to wait its turn reads the table (README.md "Unmapped records").
	// Those are counted by the engine as mapping misses and bounded here.
	var perApp [apps]int
	unmapped := 0
	for _, r := range j.ph.Measurements() {
		if r.Kind != measure.KindTCP {
			continue
		}
		if r.UID == -1 {
			unmapped++
			continue
		}
		a := r.UID - baseUID
		if a < 0 || a >= apps || r.App != appName(a) {
			return fmt.Errorf("record toward %s attributed to %q (uid %d)", r.Dst, r.App, r.UID)
		}
		perApp[a]++
	}
	mapped := 0
	for a := 0; a < apps; a++ {
		if opened := j.opened[0][a] + j.opened[1][a]; perApp[a] > opened {
			return fmt.Errorf("%s has %d records, opened %d flows", appName(a), perApp[a], opened)
		}
		mapped += perApp[a]
	}
	if all := flows + drivers*j.warm; mapped+unmapped != all || unmapped > all/maxUnmappedShare {
		return fmt.Errorf("%d flows: %d records attributed, %d unmapped (limit 1 in %d)", flows, mapped, unmapped, maxUnmappedShare)
	}
	t.detail["connect"] = t.lat
	if j.spec.ownServer {
		rttErr, overhead, err := j.pairWithSniffer()
		if err != nil {
			return err
		}
		t.lat, t.detail["rtt_err"] = overhead, rttErr
	}
	return nil
}

// pairWithSniffer derives the paced workload's two product metrics:
// |MopEye record − sniffer RTT| and connect latency − sniffer RTT,
// matched per flow (driver d's i-th flow is server d's i-th record and
// i-th sniffer sample).
func (j *flowsJob) pairWithSniffer() (rttErr, overhead []float64, err error) {
	recs := j.ph.Measurements()
	for d := 0; d < drivers; d++ {
		dst := serverAddr(d)
		truth, err := j.ph.GroundTruthRTTs(dst)
		if err != nil {
			return nil, nil, err
		}
		var mine []float64
		for _, r := range recs {
			if r.Kind == measure.KindTCP && r.Dst.String() == dst {
				mine = append(mine, micros(r.RTT))
			}
		}
		if n := j.warm + j.flows; len(truth) != n || len(mine) != n || len(j.connects[d]) != n {
			return nil, nil, fmt.Errorf("server %s: %d sniffer samples, %d records, %d connects, want %d each",
				dst, len(truth), len(mine), len(j.connects[d]), n)
		}
		for i := j.warm; i < len(truth); i++ {
			wire := truth[i] * 1000 // ms → µs
			rttErr = append(rttErr, math.Abs(mine[i]-wire))
			overhead = append(overhead, j.connects[d][i]-wire)
		}
	}
	return rttErr, overhead, nil
}

func (j *flowsJob) close() { j.ph.Close() }
