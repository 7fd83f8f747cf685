// Package metrics is the reproduction's observability registry: a
// zero-dependency, concurrency-safe set of named instruments —
// counters, gauges, and sketch-backed quantile summaries — rendered in
// the Prometheus text exposition format and snapshottable for tests
// and dashboards.
//
// Two design decisions keep the hot paths honest:
//
//   - Counters and gauges are pull-based only. The engine, collector,
//     and fleet all keep their hot counters as atomics;
//     CounterFunc/GaugeFunc/Collect* register a scrape-time read over
//     those atomics, and the registry has no counter or gauge of its
//     own to add a second write to the packet path. Enabling metrics
//     therefore costs nothing until something scrapes, and a scrape
//     costs O(instruments), not O(traffic).
//
//   - Quantile instruments wrap internal/sketch (the DDSketch-style
//     mergeable sketch the collector already aggregates with), so the
//     p50/p95/p99 a scrape exposes carry the same ±alpha relative-error
//     guarantee as /v1/stats.
//
// Rendering is deterministic: families sort by name, samples by label
// signature, and no timestamps are emitted — the golden-output tests
// depend on byte-stable scrapes.
package metrics

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sketch"
)

// Kind is an instrument family's type.
type Kind int

// Instrument kinds, mirroring the Prometheus exposition TYPE line.
const (
	KindCounter Kind = iota
	KindGauge
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// Label is one name=value pair attached to a sample.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Quantile is a streaming quantile instrument: a mutex around the
// mergeable internal/sketch, so the p50/p95/p99 it exposes carry the
// sketch's relative-error guarantee and snapshots merge exactly.
type Quantile struct {
	mu sync.Mutex
	sk *sketch.Sketch
}

// Observe records one sample.
func (q *Quantile) Observe(v float64) {
	q.mu.Lock()
	q.sk.Add(v)
	q.mu.Unlock()
}

// snapshot clones the underlying sketch.
func (q *Quantile) snapshot() *sketch.Sketch {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sk.Clone()
}

// instrument is one registered static sample source.
type instrument struct {
	labels []Label

	qtl *Quantile
	fn  func() float64 // CounterFunc/GaugeFunc
}

// family is one metric name: a kind, a help line, its static
// instruments (by label signature) and its dynamic collectors.
type family struct {
	name string
	help string
	kind Kind

	mu      sync.Mutex
	insts   map[string]*instrument
	collect []func() []Sample
}

// Registry is a concurrency-safe set of instrument families.
// Registration methods are idempotent for identical (name, kind,
// labels) and panic on a kind conflict — two subsystems claiming one
// name with different types is a programming error worth failing loud
// on.
type Registry struct {
	mu  sync.RWMutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: make(map[string]*family)}
}

// familyFor returns (creating if needed) the named family, enforcing
// kind consistency.
func (r *Registry) familyFor(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, insts: make(map[string]*instrument)}
		r.fam[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// static registers (or returns the existing) instrument under the
// family for a label signature.
func (f *family) static(labels []Label, make func() *instrument) *instrument {
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if in, ok := f.insts[sig]; ok {
		return in
	}
	in := make()
	f.insts[sig] = in
	return in
}

// Quantile registers (idempotently) a quantile summary with the given
// sketch accuracy (alpha <= 0 selects sketch.DefaultAlpha).
func (r *Registry) Quantile(name, help string, alpha float64, labels ...Label) *Quantile {
	in := r.familyFor(name, help, KindSummary).static(labels, func() *instrument {
		return &instrument{labels: copyLabels(labels), qtl: &Quantile{sk: sketch.New(alpha)}}
	})
	return in.qtl
}

// CounterFunc registers a counter whose value is read from fn at
// gather time — the cheap hook over an already-existing atomic.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.familyFor(name, help, KindCounter).static(labels, func() *instrument {
		return &instrument{labels: copyLabels(labels), fn: fn}
	})
}

// GaugeFunc registers a gauge whose value is read from fn at gather
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.familyFor(name, help, KindGauge).static(labels, func() *instrument {
		return &instrument{labels: copyLabels(labels), fn: fn}
	})
}

// CollectCounters registers a dynamic counter collector: fn is invoked
// at gather time and returns the family's samples, labels included —
// for label sets only known at runtime (per worker, per shard...).
func (r *Registry) CollectCounters(name, help string, fn func() []Sample) {
	f := r.familyFor(name, help, KindCounter)
	f.mu.Lock()
	f.collect = append(f.collect, fn)
	f.mu.Unlock()
}

// CollectGauges registers a dynamic gauge collector.
func (r *Registry) CollectGauges(name, help string, fn func() []Sample) {
	f := r.familyFor(name, help, KindGauge)
	f.mu.Lock()
	f.collect = append(f.collect, fn)
	f.mu.Unlock()
}

// CollectSummaries registers a dynamic summary collector; each
// returned Sample carries a Sketch.
func (r *Registry) CollectSummaries(name, help string, fn func() []Sample) {
	f := r.familyFor(name, help, KindSummary)
	f.mu.Lock()
	f.collect = append(f.collect, fn)
	f.mu.Unlock()
}

// Gather snapshots every family: static instruments are read, dynamic
// collectors invoked, samples sorted by label signature, families by
// name. The result is independent of the registry (sketches cloned).
func (r *Registry) Gather() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fam))
	for _, f := range r.fam {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := make(Snapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		samples := make([]Sample, 0, len(f.insts))
		for _, in := range f.insts {
			s := Sample{Labels: copyLabels(in.labels)}
			switch {
			case in.qtl != nil:
				s.Sketch = in.qtl.snapshot()
			case in.fn != nil:
				s.Value = in.fn()
			}
			samples = append(samples, s)
		}
		collectors := append([]func() []Sample(nil), f.collect...)
		f.mu.Unlock()
		// Collectors run outside the family lock: they reach into other
		// subsystems (shard mutexes, selector mutexes) and must not hold
		// registry state while they do.
		for _, fn := range collectors {
			samples = append(samples, fn()...)
		}
		sortSamples(samples)
		snap = append(snap, Family{Name: f.name, Help: f.help, Kind: f.kind, Samples: samples})
	}
	return snap
}

func copyLabels(ls []Label) []Label {
	return append([]Label(nil), ls...)
}

// labelSignature renders labels into a stable ordering key.
func labelSignature(ls []Label) string {
	sorted := copyLabels(ls)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	sig := ""
	for _, l := range sorted {
		sig += l.Key + "\x00" + l.Value + "\x00"
	}
	return sig
}

func sortSamples(ss []Sample) {
	sort.Slice(ss, func(i, j int) bool {
		return labelSignature(ss[i].Labels) < labelSignature(ss[j].Labels)
	})
}
