package main

import (
	"math"
	"regexp"
	"testing"
)

// signed lists the per-layer metrics that are differences and may
// legitimately read below zero.
var signed = map[string]bool{
	"go.heap_growth_MB":               true,
	"http.overhead_us":                true,
	"engine.unattributed_ns_per_pkt":  true,
	"crowd.unattributed_us_per_batch": true,
	"trace.overhead_share":            true,
}

// TestSmoke runs every workload at 1/100 size, timed and traced, and
// holds what is emitted against BENCHMARK.json: every declared metric
// present with its declared unit, nothing undeclared, names well
// formed, values finite, and every correctness check passing (a failed
// check is an error from runWorkload).
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			res, err := runWorkload(config{seed: 1, scale: 0.01, trace: trace, outDir: out}, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			got := make(map[string]row, len(res.Rows))
			for _, r := range res.Rows {
				if _, dup := got[r.Metric]; dup {
					t.Errorf("%s: %s emitted twice", w.name, r.Metric)
				}
				got[r.Metric] = r
				if !name.MatchString(r.Metric) {
					t.Errorf("%s: malformed metric name %q", w.name, r.Metric)
				}
				if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || (r.Value < 0 && !signed[r.Metric]) {
					t.Errorf("%s: %s = %v", w.name, r.Metric, r.Value)
				}
			}
			for _, m := range declared {
				r, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json but was not emitted", w.name, trace, m.Name)
				case r.Unit != m.Unit:
					t.Errorf("%s: %s emitted in %q, declared in %q", w.name, m.Name, r.Unit, m.Unit)
				case !trace && r.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, r.Value)
				}
				delete(got, m.Name)
			}
			for extra := range got {
				t.Errorf("%s trace=%v: %s was emitted but is not in BENCHMARK.json", w.name, trace, extra)
			}
		}
	}
}
