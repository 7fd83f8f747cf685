package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/mopeye"
)

// Identities shared by the phone workloads: four apps, each with its
// own loopback echo server.
const (
	apps    = 4
	baseUID = 20001
)

func appName(i int) string    { return fmt.Sprintf("bench.app%d", i) }
func serverAddr(i int) string { return fmt.Sprintf("203.0.113.%d:80", 10+i) }
func serverDomain(i int) string {
	return fmt.Sprintf("srv%d.bench.example", i)
}

func echoServers(n int, rttMillis float64) []mopeye.Server {
	s := make([]mopeye.Server, n)
	for i := range s {
		s[i] = mopeye.Server{Domain: serverDomain(i), Addr: serverAddr(i), RTTMillis: rttMillis}
	}
	return s
}

// payloadPool is a driver's seeded byte pool. Each operation sends a
// window of it chosen by the driver's generator, so payloads vary per
// operation without generating megabytes inside the timed section.
type payloadPool struct {
	rng  *rand.Rand
	pool []byte
}

func newPayloadPool(seed int64, size int) *payloadPool {
	p := &payloadPool{rng: rand.New(rand.NewSource(seed)), pool: make([]byte, 2*size+4096)}
	p.rng.Read(p.pool)
	return p
}

func (p *payloadPool) next(size int) []byte {
	off := p.rng.Intn(len(p.pool) - size)
	return p.pool[off : off+size]
}

// phoneCounters snapshots what a phone exposes. tun.Stats and the
// selector counts are reachable only on the traced bed.
func phoneCounters(ph phone) counters {
	c := counters{eng: ph.EngineStats()}
	if tb, ok := ph.(*tracedBed); ok {
		c.tun = tb.dev.Stats()
		c.selects = tb.selects()
	}
	return c
}

// checkEngine is the guard every phone workload applies: the engine
// must have decoded every packet, shed no datagram and timed out no
// DNS transaction (README.md "Why flow_churn stays under 4,096
// lookups").
func checkEngine(before, after counters) error {
	a, b := after.eng, before.eng
	switch {
	case a.DecodeErrors != b.DecodeErrors:
		return fmt.Errorf("engine.decode_errors = %d, want 0", a.DecodeErrors-b.DecodeErrors)
	case a.UDPDropped != b.UDPDropped:
		return fmt.Errorf("engine.udp_dropped = %d, want 0", a.UDPDropped-b.UDPDropped)
	case a.DNSTimeouts != b.DNSTimeouts:
		return fmt.Errorf("engine.dns_timeouts = %d, want 0", a.DNSTimeouts-b.DNSTimeouts)
	}
	return nil
}

// relaySpec sizes a standing-flow echo workload.
type relaySpec struct {
	workers int
	flows   int // standing flows, split evenly between the drivers
	rounds  int // per driver at scale 1
	payload int // bytes per echo
	warm    int // warm-up rounds per driver, in set-up
}

type relayJob struct {
	spec   relaySpec
	rounds int
	ph     phone
	owned  [drivers][]flow
	pools  [drivers]*payloadPool
}

// buildRelay opens the standing flows; each driver owns its share and
// pipelines over them, so the flow count costs no extra goroutines.
func buildRelay(spec relaySpec) func(*pass) (job, error) {
	return func(p *pass) (job, error) {
		ph, err := newPhone(phoneSpec{
			servers:  echoServers(apps, 0),
			workers:  spec.workers,
			loopback: true,
			seed:     p.seed,
		}, p.tr)
		if err != nil {
			return nil, err
		}
		j := &relayJob{spec: spec, rounds: p.scaled(spec.rounds), ph: ph}
		for a := 0; a < apps; a++ {
			ph.InstallApp(baseUID+a, appName(a))
		}
		for i := 0; i < spec.flows; i++ {
			a := i % apps
			f, err := ph.Connect(baseUID+a, serverAddr(a))
			if err != nil {
				ph.Close()
				return nil, fmt.Errorf("opening standing flow %d: %w", i, err)
			}
			j.owned[i%drivers] = append(j.owned[i%drivers], f)
		}
		for d := range j.pools {
			j.pools[d] = newPayloadPool(p.seed*1000+int64(d), spec.payload)
		}
		if t := bothDrivers(func(d int) tally { return j.drive(d, spec.warm) }); t.failed > 0 {
			ph.Close()
			return nil, fmt.Errorf("%d of %d warm-up echoes failed", t.failed, t.attempted)
		}
		return j, nil
	}
}

func (j *relayJob) run() tally {
	t := bothDrivers(func(d int) tally { return j.drive(d, j.rounds) })
	t.opName = fmt.Sprintf("%d B echo", j.spec.payload)
	t.latName = "one driver round: write every owned flow, read every echo"
	return t
}

// drive runs rounds of one driver's loop: write a seeded payload to every owned
// flow, then read and verify every echo. A flow that errors once is
// dead; its echoes in this and every later round count as failed.
func (j *relayJob) drive(d, rounds int) tally {
	flows := j.owned[d]
	t := tally{lat: make([]float64, 0, rounds)}
	sent := make([][]byte, len(flows))
	dead := make([]bool, len(flows))
	buf := make([]byte, j.spec.payload)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i, f := range flows {
			t.attempted++
			if dead[i] {
				continue
			}
			sent[i] = j.pools[d].next(j.spec.payload)
			if _, err := f.Write(sent[i]); err != nil {
				dead[i] = true
			}
		}
		for i, f := range flows {
			if dead[i] {
				t.failed++
				continue
			}
			if err := f.ReadFull(buf); err != nil || !bytes.Equal(buf, sent[i]) {
				dead[i] = true
				t.failed++
			}
		}
		t.lat = append(t.lat, micros(time.Since(t0)))
	}
	return t
}

func (j *relayJob) counters() counters { return phoneCounters(j.ph) }

// ready waits for the standing flows' records; nothing is recorded
// after that, so settle has nothing to wait for.
func (j *relayJob) ready() error          { return awaitRecords(j.ph, j.spec.flows) }
func (j *relayJob) settle(counters) error { return nil }

func (j *relayJob) verify(t *tally, before, after counters) error {
	if want := drivers * j.rounds * (j.spec.flows / drivers); t.attempted != want {
		return fmt.Errorf("attempted %d echoes, want %d", t.attempted, want)
	}
	if got := after.eng.TCPMeasurements; got != j.spec.flows {
		return fmt.Errorf("engine recorded %d TCP measurements for %d standing flows", got, j.spec.flows)
	}
	wantBytes := int64(t.attempted) * int64(j.spec.payload)
	if up := after.eng.BytesUp - before.eng.BytesUp; up != wantBytes {
		return fmt.Errorf("engine relayed %d bytes up, drivers sent %d", up, wantBytes)
	}
	if down := after.eng.BytesDown - before.eng.BytesDown; down != wantBytes {
		return fmt.Errorf("engine relayed %d bytes down, drivers received %d", down, wantBytes)
	}
	return checkEngine(before, after)
}

func (j *relayJob) close() {
	for _, fs := range j.owned {
		for _, f := range fs {
			_ = f.Close() // phonestack.Conn.Close always returns nil
		}
	}
	j.ph.Close()
}
