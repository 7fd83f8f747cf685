package mopeye

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/metrics"
)

// This file is the multi-phone scenario layer: the paper's deployment
// is thousands of phones uploading into one collector, and Fleet is
// the API that finally exercises that shape in-process — N simulated
// phones with heterogeneous per-phone options (RTT profiles, app
// mixes, seeds, worker counts), each running its own workload, all
// fanning their Collector uploads into one shared Transport. The
// fleet owns phone lifecycle (construct, attach, run, close — per
// phone), keeps each closed phone's device-stamped measurements,
// aggregates stats, and surfaces per-phone errors without letting one
// phone's failure stop the rest.

// FleetPhone describes one phone of a fleet.
type FleetPhone struct {
	// Device is the phone's device stamp in the crowdsourced dataset.
	// Required, and usually unique — two FleetPhones may share a stamp
	// (a reinstalled device), in which case their records merge into
	// one device at analysis time while their uploads stay
	// independently keyed.
	Device string
	// Options configures the phone; fully heterogeneous across the
	// fleet (RTT profiles, servers, seeds, worker counts...).
	Options Options
	// Apps maps UID → package to install before the workload runs.
	Apps map[int]string
	// Workload drives the phone's traffic; the fleet closes the phone
	// when it returns. Required.
	Workload func(ctx context.Context, p *Phone) error
}

// FleetOptions configures a fleet.
type FleetOptions struct {
	// Phones is the fleet roster. At least one is required.
	Phones []FleetPhone
	// Transport is the shared upload path every phone's Collector
	// ships through (one HTTPTransport, one collector server — the
	// paper's fan-in). nil attaches no Collector: the phones upload
	// nothing, and their records are still available via
	// Records/Study. The fleet never closes the Transport — its owner
	// does, after Run returns.
	Transport Transport
	// Collector is the per-phone upload policy template, used only
	// with a Transport; Device and Transport are overridden per phone.
	Collector CollectorOptions
	// Concurrency bounds how many phones run at once; 0 or less runs
	// the whole fleet concurrently.
	Concurrency int
}

// FleetPhoneStatus is one phone's outcome.
type FleetPhoneStatus struct {
	Device string
	// Records is the phone's measurement count; Uploads is the
	// batches its collector shipped (0 without a Transport).
	Records int
	Uploads int
	// Elapsed is the workload's duration measured on the phone's own
	// clock. On a wall-clock phone it tracks real time; on a phone
	// running simulated time it reports simulated time — the duration
	// the device experienced, which is what fleet-level throughput and
	// pacing arithmetic wants. Zero when the phone failed to construct.
	Elapsed time.Duration
	// Err is the phone's failure: construction, workload, or sink
	// (first of them to occur). nil on success.
	Err error
}

// FleetStats aggregates a completed run.
type FleetStats struct {
	Phones  int
	Failed  int
	Records int
	Uploads int
	// Duration is the wall-clock span of Run as the host observed it:
	// construction, workloads, and teardown across every phone. It is
	// deliberately wall time — the cost of running the fleet — and says
	// nothing about time as the phones experienced it.
	Duration time.Duration
	// PhoneTime is the longest per-phone workload duration measured on
	// the phones' own clocks (max over FleetPhoneStatus.Elapsed). Under
	// simulated time this is the number that means something; comparing
	// it with Duration shows the simulation speed-up.
	PhoneTime time.Duration
}

// Fleet runs N phones into one collector. Construct with NewFleet,
// drive with Run (once), then read Stats, PhoneStatuses, Records, or
// Study.
type Fleet struct {
	o FleetOptions

	mu     sync.Mutex
	ran    bool
	status []FleetPhoneStatus
	// records holds each closed phone's measurements, device-stamped.
	records [][]measure.Record
	dur     time.Duration

	// metricsOnce builds the lazy observability registry; see
	// metrics.go.
	metricsOnce sync.Once
	metricsReg  *metrics.Registry
}

// NewFleet validates the roster and builds a fleet.
func NewFleet(o FleetOptions) (*Fleet, error) {
	if len(o.Phones) == 0 {
		return nil, errors.New("mopeye: fleet without phones")
	}
	for i, p := range o.Phones {
		if p.Device == "" {
			return nil, fmt.Errorf("mopeye: fleet phone %d without a device stamp", i)
		}
		if p.Workload == nil {
			return nil, fmt.Errorf("mopeye: fleet phone %q without a workload", p.Device)
		}
	}
	return &Fleet{o: o}, nil
}

// Run constructs and runs every phone: build, attach a device-stamped
// Collector when there is a shared Transport, install apps, run the
// workload, close (which flushes the final batch), and keep the
// phone's measurements stamped with its Device. Phones run
// concurrently up to Concurrency; one phone's failure never stops
// another. Run returns the joined per-phone errors (nil when every
// phone succeeded) and may be called once.
func (f *Fleet) Run(ctx context.Context) error {
	f.mu.Lock()
	if f.ran {
		f.mu.Unlock()
		return errors.New("mopeye: fleet already ran")
	}
	f.ran = true
	f.status = make([]FleetPhoneStatus, len(f.o.Phones))
	f.records = make([][]measure.Record, len(f.o.Phones))
	f.mu.Unlock()

	sem := make(chan struct{}, f.concurrency())
	start := time.Now()
	var wg sync.WaitGroup
	for i := range f.o.Phones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f.runPhone(ctx, i)
		}(i)
	}
	wg.Wait()

	f.mu.Lock()
	defer f.mu.Unlock()
	f.dur = time.Since(start)
	var errs []error
	for _, st := range f.status {
		if st.Err != nil {
			errs = append(errs, st.Err)
		}
	}
	return errors.Join(errs...)
}

func (f *Fleet) concurrency() int {
	if f.o.Concurrency > 0 {
		return f.o.Concurrency
	}
	return len(f.o.Phones)
}

// runPhone is one phone's full lifecycle; its outcome lands in
// f.status[i].
func (f *Fleet) runPhone(ctx context.Context, i int) {
	spec := f.o.Phones[i]
	st := FleetPhoneStatus{Device: spec.Device}
	defer func() {
		f.mu.Lock()
		f.status[i] = st
		f.mu.Unlock()
	}()
	fail := func(err error) {
		if st.Err == nil && err != nil {
			st.Err = fmt.Errorf("phone %q: %w", spec.Device, err)
		}
	}

	phone, err := New(spec.Options)
	if err != nil {
		fail(err)
		return
	}
	var col *Collector
	var attached *Attached
	if f.o.Transport != nil {
		colOpts := f.o.Collector
		colOpts.Device = spec.Device
		colOpts.Transport = f.o.Transport
		col = NewCollector(colOpts)
		if attached, err = phone.Attach(col); err != nil {
			phone.Close()
			fail(err)
			return
		}
	}
	for uid, pkg := range spec.Apps {
		phone.InstallApp(uid, pkg)
	}
	// The workload is timed on the phone's own clock, not time.Now():
	// under an injected virtual clock the two diverge wildly, and the
	// duration the device experienced is the one Elapsed reports.
	t0 := phone.bed.Clk.Nanos()
	werr := spec.Workload(ctx, phone)
	st.Elapsed = time.Duration(phone.bed.Clk.Nanos() - t0)
	// Close flushes the collector's final batch through the attach
	// drain before returning.
	phone.Close()
	fail(werr)
	recs := phone.Measurements()
	for j := range recs {
		if recs[j].Device == "" {
			recs[j].Device = spec.Device
		}
	}
	f.mu.Lock()
	f.records[i] = recs
	f.mu.Unlock()
	st.Records = len(recs)
	if col != nil {
		fail(attached.Err())
		st.Uploads = col.Uploads()
	}
}

// Stats aggregates the run.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FleetStats{Phones: len(f.o.Phones), Duration: f.dur}
	for _, st := range f.status {
		if st.Err != nil {
			s.Failed++
		}
		s.Records += st.Records
		s.Uploads += st.Uploads
		if st.Elapsed > s.PhoneTime {
			s.PhoneTime = st.Elapsed
		}
	}
	return s
}

// PhoneStatuses returns every phone's outcome, in roster order.
func (f *Fleet) PhoneStatuses() []FleetPhoneStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FleetPhoneStatus(nil), f.status...)
}

// Records merges every closed phone's device-stamped measurements in
// canonical order — what a lossless upload delivers, so with a
// Transport it is directly comparable, record for record, with the
// dataset the collector server assembled.
func (f *Fleet) Records() []Measurement {
	f.mu.Lock()
	var recs []measure.Record
	for _, r := range f.records {
		recs = append(recs, r...)
	}
	f.mu.Unlock()
	measure.SortCanonical(recs)
	return recs
}

// Study runs the §4.2 analysis pipeline over the fleet's merged
// records.
func (f *Fleet) Study() *Study {
	return NewStudyFrom(f.Records())
}
