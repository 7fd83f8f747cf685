package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"sort"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/internal/sketch"
	"repro/mopeye"
)

// ingestSpec sizes the collector workload: devices × batches × records
// unique records, every dupEvery-th batch redelivered under the same
// idempotency key, a stats read after every statsEvery-th batch.
type ingestSpec struct {
	devices    int // at scale 1, split evenly between the drivers
	batches    int // per device
	records    int // per batch
	dupEvery   int
	statsEvery int
	warm       int // warm-up devices per driver, uploaded in set-up
}

const ingestApps = 12

var (
	ingestDst      = netip.MustParseAddrPort("203.0.113.1:443")
	ingestNetTypes = []string{"WiFi", "LTE"}
)

func ingestApp(i int) string { return fmt.Sprintf("bench.app%02d", i) }

// syntheticRecord draws one crowd record from the seeded generator:
// one of ingestApps apps and an exponential RTT — most connects tens of
// ms, a long tail.
func syntheticRecord(rng *rand.Rand, dev int) (r measure.Record, app int) {
	app = rng.Intn(ingestApps)
	ms := 8 + 60*rng.ExpFloat64()
	return measure.Record{
		Kind:    measure.KindTCP,
		App:     ingestApp(app),
		UID:     10000 + dev%100,
		Dst:     ingestDst,
		RTT:     time.Duration(ms * float64(time.Millisecond)),
		NetType: ingestNetTypes[dev%len(ingestNetTypes)],
	}, app
}

// ingestCounters is the collector path's public stats.
type ingestCounters struct {
	srv       crowd.ServerStats
	dedupKeys int
	transport [drivers]mopeye.HTTPTransportStats
}

// uploader is one driver's end of the path: its own blocking
// HTTPTransport over its own single keep-alive connection, which the
// driver's interleaved stats reads share — so the process holds
// exactly `drivers` OS-level connections.
type uploader struct {
	client *http.Client
	tr     *mopeye.HTTPTransport
	rng    *rand.Rand

	// Preallocated in set-up so the samples are not heap growth.
	uploadUS []float64 // per attempt, appended by the transport's uploader goroutine
	statsUS  []float64
	rttMS    []float64 // every synthesized RTT, with its app, for the exact medians
	rttApp   []uint8

	sent, dups int    // batches, warm-up included
	digest     uint64 // order-independent sum over the unique records sent
	statsErr   error

	// Where the timed section starts in the fields above.
	warmSent, warmAttempts, warmStats int
}

type ingestJob struct {
	spec    ingestSpec
	devices int
	dir     string
	srv     *crowd.Server
	ts      *httptest.Server
	up      [drivers]*uploader
	closed  bool
}

func buildIngest(spec ingestSpec) func(*pass) (job, error) {
	return func(p *pass) (job, error) {
		dir, err := os.MkdirTemp(p.outDir, "spool-")
		if err != nil {
			return nil, err
		}
		// collectord's default shape (-shards 1) with record retention
		// off: at fleet scale the sketches are the product.
		srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: dir, RetainRecords: crowd.RetainOff})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		j := &ingestJob{spec: spec, devices: max(drivers, p.scaled(spec.devices)), dir: dir, srv: srv}
		var h http.Handler = srv
		if p.tr != nil {
			h = &tracedHandler{next: srv, tr: p.tr}
		}
		j.ts = httptest.NewServer(h)

		perDriver := (j.devices/drivers + 1 + spec.warm) * spec.batches
		for d := range j.up {
			var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			if p.tr != nil {
				rt = &tracedRoundTripper{next: rt, tr: p.tr}
			}
			u := &uploader{
				client:   &http.Client{Transport: rt, Timeout: 30 * time.Second},
				rng:      rand.New(rand.NewSource(p.seed*1000 + int64(d))),
				uploadUS: make([]float64, 0, perDriver+perDriver/spec.dupEvery+8),
				statsUS:  make([]float64, 0, perDriver/spec.statsEvery+8),
				rttMS:    make([]float64, 0, perDriver*spec.records),
				rttApp:   make([]uint8, 0, perDriver*spec.records),
			}
			u.tr = mopeye.NewHTTPTransport(j.ts.URL, mopeye.HTTPTransportOptions{
				Client:      u.client,
				QueueSize:   64,
				BlockOnFull: true,
				// Any failed attempt is retried by the transport; the
				// batch-level outcome is read from its Stats afterwards.
				OnAttempt: func(d time.Duration, _ error) { u.uploadUS = append(u.uploadUS, micros(d)) },
			})
			j.up[d] = u
		}
		// Warm-up: connections dialed, sketches and spool file created,
		// before anything is timed.
		bothDrivers(func(d int) tally {
			u := j.up[d]
			j.drive(d, "warm", d*spec.warm, (d+1)*spec.warm)
			for deadline := time.Now().Add(10 * time.Second); u.tr.Stats().Uploaded < uint64(u.sent+u.dups) && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			u.warmSent, u.warmAttempts, u.warmStats = u.sent, len(u.uploadUS), len(u.statsUS)
			return tally{}
		})
		for _, u := range j.up {
			if st := u.tr.Stats(); u.statsErr != nil || st.Uploaded != uint64(u.sent+u.dups) {
				j.close()
				return nil, fmt.Errorf("warm-up: %d of %d uploads acknowledged (%v)", st.Uploaded, u.sent+u.dups, u.statsErr)
			}
		}
		return j, nil
	}
}

// recordDigest is FNV-1a over the fields that identify a record; the
// sum of digests is an order-independent fingerprint of a record set.
func recordDigest(device string, r measure.Record) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range [...]string{device, r.App, r.NetType} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ '|') * prime
	}
	h = (h ^ uint64(r.RTT)) * prime
	return (h ^ uint64(r.UID)) * prime
}

// run uploads each driver's share of the fleet. The transport's Close
// is inside the timed section: a driver is not done until the collector
// acknowledged its last batch.
func (j *ingestJob) run() tally {
	t := bothDrivers(func(d int) tally {
		u := j.up[d]
		j.drive(d, "sim", d*j.devices/drivers, (d+1)*j.devices/drivers)
		if err := u.tr.Close(); err != nil && u.statsErr == nil {
			u.statsErr = err
		}
		st := u.tr.Stats()
		t := tally{
			attempted: (u.sent - u.warmSent) * j.spec.records,
			failed:    int(st.Failed+st.Dropped) * j.spec.records,
			lat:       u.uploadUS[u.warmAttempts:],
			detail:    map[string][]float64{"stats": u.statsUS[u.warmStats:]},
		}
		if u.statsErr != nil {
			t.failed++
		}
		return t
	})
	t.opName, t.latName = "unique record accepted", "one upload attempt (HTTPTransport OnAttempt)"
	return t
}

// drive synthesizes and uploads the batches of devices [lo, hi) as
// driver d.
func (j *ingestJob) drive(d int, prefix string, lo, hi int) {
	u := j.up[d]
	ctx := context.Background()
	for dev := lo; dev < hi; dev++ {
		device := fmt.Sprintf("%s-%07d", prefix, dev)
		for b := 0; b < j.spec.batches; b++ {
			batch := mopeye.Batch{
				Device:  device,
				Key:     fmt.Sprintf("%s/b%d", device, b),
				Seq:     b + 1,
				Records: make([]measure.Record, j.spec.records),
			}
			for k := range batch.Records {
				r, app := syntheticRecord(u.rng, dev)
				batch.Records[k] = r
				u.rttMS = append(u.rttMS, r.Millis())
				u.rttApp = append(u.rttApp, uint8(app))
				u.digest += recordDigest(device, r)
			}
			// With BlockOnFull an Upload error means the transport is
			// closed; the batches it never took show up as a count
			// mismatch in verify.
			if err := u.tr.Upload(ctx, batch); err != nil {
				return
			}
			u.sent++
			if u.sent%j.spec.dupEvery == 0 {
				if err := u.tr.Upload(ctx, batch); err != nil {
					return
				}
				u.dups++
			}
			if u.sent%j.spec.statsEvery == 0 {
				t0 := time.Now()
				if _, err := mopeye.FetchCollectorStats(u.client, j.ts.URL, ""); err != nil {
					u.statsErr = err
				}
				u.statsUS = append(u.statsUS, micros(time.Since(t0)))
			}
		}
	}
}

func (j *ingestJob) counters() counters {
	c := ingestCounters{srv: j.srv.Stats(), dedupKeys: j.srv.DedupKeys()}
	for d, u := range j.up {
		c.transport[d] = u.tr.Stats()
	}
	return counters{ingest: c}
}

// ready and settle have nothing to wait for: warm-up polls for its
// acknowledgements, and each driver's transport Close, inside the timed
// section, returns only after the last one.
func (j *ingestJob) ready() error          { return nil }
func (j *ingestJob) settle(counters) error { return nil }

// verify checks exactly-once delivery (server counts equal what was
// sent), the sketched per-app medians against exact client-side ones,
// and — after closing the server — that the spool replays exactly the
// accepted records.
func (j *ingestJob) verify(t *tally, _, after counters) error {
	var sent, dups int
	var digest uint64
	var exact [ingestApps][]float64
	for _, u := range j.up {
		if u.statsErr != nil {
			return u.statsErr
		}
		sent += u.sent
		dups += u.dups
		digest += u.digest
		for i, ms := range u.rttMS {
			exact[u.rttApp[i]] = append(exact[u.rttApp[i]], ms)
		}
	}
	if want := (j.devices + drivers*j.spec.warm) * j.spec.batches; sent != want {
		return fmt.Errorf("drivers sent %d batches, want %d", sent, want)
	}
	st := after.ingest.srv // absolute, like the drivers' totals: warm-up included
	if st.Batches != sent || st.Records != sent*j.spec.records || st.Duplicates != dups {
		return fmt.Errorf("server holds %d batches / %d records / %d duplicates, sent %d / %d / %d",
			st.Batches, st.Records, st.Duplicates, sent, sent*j.spec.records, dups)
	}
	if st.AuthFailures != 0 || st.BadRequests != 0 {
		return fmt.Errorf("server counted %d auth failures and %d bad requests", st.AuthFailures, st.BadRequests)
	}

	sum := j.srv.Summary()
	for a := range exact {
		rtts := exact[a]
		if len(rtts) == 0 {
			continue
		}
		sort.Float64s(rtts)
		want := rtts[(len(rtts)-1)/2]
		qs := sum.PerApp[ingestApp(a)]
		if qs.N != uint64(len(rtts)) {
			return fmt.Errorf("%s: sent %d records, sketch holds %d", ingestApp(a), len(rtts), qs.N)
		}
		// The sketch promises alpha relative error at a rank; its rank
		// and the nearest-rank median may straddle two neighbouring
		// samples, which at these counts differ by far less than the
		// slack allowed here.
		if rel := math.Abs(qs.P50MS-want) / want; rel > 1.25*sketch.DefaultAlpha {
			return fmt.Errorf("%s: sketched median %.4f ms vs exact %.4f ms (rel %.4f > alpha %.3f)",
				ingestApp(a), qs.P50MS, want, rel, sketch.DefaultAlpha)
		}
	}

	j.shutdown()
	recs, err := crowd.ReadSpool(j.dir)
	if err != nil {
		return err
	}
	var spooled uint64
	for _, r := range recs {
		spooled += recordDigest(r.Device, r)
	}
	if len(recs) != sent*j.spec.records || spooled != digest {
		return fmt.Errorf("spool replays %d records (digest %x), accepted %d (digest %x)",
			len(recs), spooled, sent*j.spec.records, digest)
	}
	return nil
}

// shutdown stops the HTTP server and closes the spool; the in-memory
// server stays readable.
func (j *ingestJob) shutdown() {
	if j.closed {
		return
	}
	j.closed = true
	for _, u := range j.up {
		_ = u.tr.Close() // first Close already reported the transport's error
		u.client.CloseIdleConnections()
	}
	j.ts.Close()
	_ = j.srv.Close() // spool close; the records were already verified or the run failed
}

func (j *ingestJob) close() {
	j.shutdown()
	os.RemoveAll(j.dir)
}
