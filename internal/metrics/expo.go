package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sketch"
)

// Snapshot is a point-in-time gather: families sorted by name, each
// family's samples sorted by label signature. It is detached from the
// registry that produced it (values copied, sketches cloned), so tests
// and dashboards can hold one across further traffic.
type Snapshot []Family

// Family is one metric name with its help text, kind, and samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Sample is one labeled value. Counters and gauges use Value; summary
// samples carry the cloned Sketch instead (quantiles, sum and count
// are derived from it at render time).
type Sample struct {
	Labels []Label
	Value  float64
	Sketch *sketch.Sketch
}

// Get returns the sample value for the exact label set, and whether it
// was found — a test convenience.
func (s Snapshot) Get(name string, labels ...Label) (float64, bool) {
	sig := labelSignature(labels)
	for _, f := range s {
		if f.Name != name {
			continue
		}
		for _, sm := range f.Samples {
			if labelSignature(sm.Labels) == sig {
				return sm.Value, true
			}
		}
	}
	return 0, false
}

// Quantiles rendered for summary families: the p50/p95/p99 the paper's
// reporting leans on.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). No timestamps are emitted and
// ordering is fully deterministic, so equal snapshots render to equal
// bytes.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range s {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, sm := range f.Samples {
			if f.Kind == KindSummary {
				writeSummarySample(&b, f.Name, sm)
				continue
			}
			b.WriteString(f.Name)
			writeLabels(&b, sm.Labels, "", "")
			b.WriteByte(' ')
			b.WriteString(formatValue(sm.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSummarySample renders one summary sample: fixed quantile lines
// plus _sum and _count, all derived from the sample's sketch.
func writeSummarySample(b *strings.Builder, name string, sm Sample) {
	sk := sm.Sketch
	for _, q := range summaryQuantiles {
		v := 0.0
		if sk != nil && sk.Count() > 0 {
			v = sk.Quantile(q)
		}
		b.WriteString(name)
		writeLabels(b, sm.Labels, "quantile", strconv.FormatFloat(q, 'g', -1, 64))
		b.WriteByte(' ')
		b.WriteString(formatValue(v))
		b.WriteByte('\n')
	}
	var sum float64
	var count uint64
	if sk != nil {
		sum, count = sk.Sum(), sk.Count()
	}
	b.WriteString(name + "_sum")
	writeLabels(b, sm.Labels, "", "")
	b.WriteByte(' ')
	b.WriteString(formatValue(sum))
	b.WriteByte('\n')
	b.WriteString(name + "_count")
	writeLabels(b, sm.Labels, "", "")
	b.WriteByte(' ')
	b.WriteString(formatValue(float64(count)))
	b.WriteByte('\n')
}

// writeLabels renders a sorted {k="v",...} block, optionally with one
// extra pair appended (the summary quantile label).
func writeLabels(b *strings.Builder, ls []Label, extraKey, extraVal string) {
	if len(ls) == 0 && extraKey == "" {
		return
	}
	sorted := copyLabels(ls)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	if extraKey != "" {
		sorted = append(sorted, Label{Key: extraKey, Value: extraVal})
	}
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// WritePrometheus gathers and renders in one step.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Gather().WritePrometheus(w)
}

// ContentType is the exposition-format content type served by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry in exposition
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}
