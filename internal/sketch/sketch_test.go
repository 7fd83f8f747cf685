package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// adversarial distributions for the error-bound properties: the shapes
// that break naive fixed-bin histograms — mass split across far-apart
// modes, a heavy tail spanning four decades, and zero-variance input.
func distributions(r *rand.Rand, n int) map[string][]float64 {
	out := make(map[string][]float64)

	bimodal := make([]float64, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = 8 + r.Float64()*4 // fast mode ~10ms
		} else {
			bimodal[i] = 900 + r.Float64()*200 // slow mode ~1s
		}
	}
	out["bimodal"] = bimodal

	heavy := make([]float64, n)
	for i := range heavy {
		// Pareto(alpha=1.2): a genuinely heavy tail.
		heavy[i] = 5 * math.Pow(r.Float64(), -1/1.2)
	}
	out["heavy-tail"] = heavy

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42
	}
	out["constant"] = constant

	lognormal := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = 50 * math.Exp(0.6*r.NormFloat64())
	}
	out["lognormal"] = lognormal

	return out
}

// exactNearestRank is the exact quantile under the same nearest-rank
// convention the sketch uses — the value DDSketch's relative-error
// guarantee is stated against. (Interpolated quantiles can land between
// two far-apart samples of a bimodal distribution, where no bound in
// terms of either sample holds.)
func exactNearestRank(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Quantile estimates stay within the advertised relative accuracy on
// every adversarial distribution, at every tested quantile.
func TestQuantileErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, xs := range distributions(r, 20001) {
		for _, alpha := range []float64{0.005, 0.01, 0.05} {
			s := New(alpha)
			for _, x := range xs {
				s.Add(x)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				got := s.Quantile(q)
				want := exactNearestRank(sorted, q)
				if re := relErr(got, want); re > alpha+1e-9 {
					t.Errorf("%s alpha=%v q=%v: got %v want %v (rel err %.4f)", name, alpha, q, got, want, re)
				}
			}
			// Median agreement against the exact internal/stats pipeline on
			// odd-length input (odd length makes the interpolated median a
			// real sample, so the relative bound applies to it too).
			if got, want := s.Quantile(0.5), stats.Median(xs); relErr(got, want) > alpha+1e-9 {
				t.Errorf("%s alpha=%v: median %v vs stats.Median %v", name, alpha, got, want)
			}
			if s.Count() != uint64(len(xs)) {
				t.Errorf("%s: count %d want %d", name, s.Count(), len(xs))
			}
		}
	}
}

// The constant distribution is recovered exactly: min = max = every
// quantile (the clamp to exact extremes guarantees it).
func TestConstantExact(t *testing.T) {
	s := New(0.01)
	for i := 0; i < 1000; i++ {
		s.Add(42)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("q=%v: %v", q, got)
		}
	}
	if s.Min() != 42 || s.Max() != 42 {
		t.Errorf("extremes: [%v, %v]", s.Min(), s.Max())
	}
}

// sketchEqual asserts two sketches answer identically: same counts,
// same store (offset and every counter), same quantiles.
func sketchEqual(t *testing.T, label string, a, b *Sketch) {
	t.Helper()
	if err := storeDiff(a, b); err != "" {
		t.Fatalf("%s: %s", label, err)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("%s: q=%v diverges: %v vs %v", label, q, a.Quantile(q), b.Quantile(q))
		}
	}
	// Sums are float additions in different orders; near-equal is the
	// honest contract.
	if relErr(a.Sum(), b.Sum()) > 1e-9 {
		t.Fatalf("%s: sums diverge: %v vs %v", label, a.Sum(), b.Sum())
	}
}

// Merge is commutative and associative: any shard/merge topology over
// the same samples yields identical bins and quantiles, equal to the
// one sketch fed the whole stream.
func TestMergeCommutativeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, xs := range distributions(r, 3000) {
		parts := make([]*Sketch, 4)
		for i := range parts {
			parts[i] = New(0.01)
		}
		for i, x := range xs {
			parts[i%len(parts)].Add(x)
		}

		// ((a+b)+c)+d
		left := New(0.01)
		for _, p := range parts {
			if err := left.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		// a+(b+(c+d)), built right to left.
		right := New(0.01)
		for i := len(parts) - 1; i >= 0; i-- {
			if err := right.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		// reversed order entirely: d+c+b+a
		rev := New(0.01)
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		// The unsharded sketch over the same stream.
		whole := New(0.01)
		for _, x := range xs {
			whole.Add(x)
		}

		sketchEqual(t, name+"/assoc", left, right)
		sketchEqual(t, name+"/comm", left, rev)
		sketchEqual(t, name+"/sharded-vs-whole", left, whole)
	}
}

func TestMergeAlphaMismatch(t *testing.T) {
	a, b := New(0.01), New(0.02)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Error("alpha mismatch accepted")
	}
	// Merging an empty or nil sketch is a no-op regardless of alpha.
	if err := a.Merge(New(0.02)); err != nil {
		t.Errorf("empty merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

// Non-positive samples count toward ranks but estimate as zero, and the
// sketch stays well-defined around them.
func TestZeroAndNegative(t *testing.T) {
	s := New(0.01)
	s.Add(0)
	s.Add(-5)
	for i := 0; i < 8; i++ {
		s.Add(100)
	}
	if s.Count() != 10 {
		t.Fatalf("count %d", s.Count())
	}
	if got := s.Quantile(0); got != -5 {
		t.Errorf("q0: %v", got)
	}
	if got := s.Quantile(0.5); relErr(got, 100) > 0.01 {
		t.Errorf("median: %v", got)
	}
}

// Memory stays O(bins): a million samples over four decades occupy a
// bounded bin set, and Clone is independent of its source.
func TestBoundedBinsAndClone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := New(0.01)
	for i := 0; i < 1_000_000; i++ {
		s.Add(math.Pow(10, r.Float64()*4)) // 1 .. 10^4
	}
	// log_gamma(10^4) bins ≈ ln(10^4)/ln(gamma) ≈ 9.2/0.02 ≈ 461.
	if s.Bins() > 600 {
		t.Errorf("bins: %d", s.Bins())
	}
	c := s.Clone()
	sketchEqual(t, "clone", s, c)
	c.Add(12345)
	if s.Count() == c.Count() {
		t.Error("clone shares state with source")
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(0)
	if s.alpha != DefaultAlpha {
		t.Errorf("default alpha: %v", s.alpha)
	}
	if s.Quantile(0.5) != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty sketch answers non-zero")
	}
}

// storeDiff describes the first difference between two sketches'
// counters — count, zero bin, min, max (bit for bit), offset and every
// store counter — or returns "" when there is none. Sum is left out:
// its float additions reassociate with the order samples came in.
func storeDiff(a, b *Sketch) string {
	if a.count != b.count || a.zero != b.zero ||
		math.Float64bits(a.min) != math.Float64bits(b.min) ||
		math.Float64bits(a.max) != math.Float64bits(b.max) {
		return fmt.Sprintf("counters diverge: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
			a.count, a.zero, a.min, a.max, b.count, b.zero, b.min, b.max)
	}
	if a.offset != b.offset || len(a.counts) != len(b.counts) {
		return fmt.Sprintf("stores diverge: offset %d len %d vs offset %d len %d",
			a.offset, len(a.counts), b.offset, len(b.counts))
	}
	for i, n := range a.counts {
		if b.counts[i] != n {
			return fmt.Sprintf("bin %d: %d vs %d", a.offset+i, n, b.counts[i])
		}
	}
	return ""
}

// positiveRange returns n samples spread evenly in exponent over the
// whole positive float64 range, subnormals and the extremes included.
func positiveRange(r *rand.Rand, n int) []float64 {
	xs := []float64{math.SmallestNonzeroFloat64, math.MaxFloat64}
	for len(xs) < n {
		exp := r.Intn(2098) - 1074 // -1074 .. 1023
		xs = append(xs, math.Ldexp(1+r.Float64(), exp))
	}
	return xs
}

// The store never holds more than maxBins counters, whatever the
// samples span. Samples over the whole positive float64 range keep
// their count and exact extremes, and every quantile whose rank lies
// above the collapsed mass (the lowest kept bin) stays within alpha.
// NaN and +Inf follow the stated policy.
func TestSketchStoreBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := positiveRange(r, 200_000)
	s := New(0.01)
	for _, x := range xs {
		s.Add(x)
		if len(s.counts) > maxBins {
			t.Fatalf("store holds %d counters, cap %d", len(s.counts), maxBins)
		}
	}
	if s.Count() != uint64(len(xs)) || s.Min() != math.SmallestNonzeroFloat64 || s.Max() != math.MaxFloat64 {
		t.Fatalf("count %d min %v max %v", s.Count(), s.Min(), s.Max())
	}
	if len(s.counts) != maxBins || s.top() != s.key(math.MaxFloat64) {
		t.Fatalf("store spans keys %d..%d (%d counters), want the top %d keys to %d",
			s.offset, s.top(), len(s.counts), maxBins, s.key(math.MaxFloat64))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	collapsed := s.zero + s.counts[0]
	checked := 0
	for q := 0.0; q < 1; q += 0.0001 {
		if uint64(q*float64(len(xs)-1)) < collapsed {
			continue
		}
		checked++
		got, want := s.Quantile(q), exactNearestRank(sorted, q)
		if re := relErr(got, want); re > s.alpha+1e-9 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f)", q, got, want, re)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d quantiles lie above the collapsed mass", checked)
	}

	// At the finest accuracy New accepts, and below it, the cap holds.
	for _, alpha := range []float64{minAlpha, 1e-300} {
		fine := New(alpha)
		for _, x := range xs[:5000] {
			fine.Add(x)
		}
		if len(fine.counts) > maxBins || fine.Count() != 5000 {
			t.Errorf("alpha %v: %d counters, count %d", alpha, len(fine.counts), fine.Count())
		}
	}

	// The non-finite policy: NaN is recorded as 0 — it takes rank in
	// the zero bin and adds nothing to Sum — and +Inf lands in the top
	// key, the bin of math.MaxFloat64, while Max reports it exactly.
	nf := New(0.01)
	nf.Add(math.NaN())
	nf.Add(5)
	if nf.Count() != 2 || nf.zero != 1 || nf.Sum() != 5 || nf.Min() != 0 || nf.Quantile(0) != 0 {
		t.Errorf("NaN: count %d zero %d sum %v min %v", nf.Count(), nf.zero, nf.Sum(), nf.Min())
	}
	nf.Add(math.Inf(1))
	if nf.top() != nf.key(math.MaxFloat64) || !math.IsInf(nf.Max(), 1) || !math.IsInf(nf.Quantile(1), 1) {
		t.Errorf("+Inf: top key %d want %d, max %v", nf.top(), nf.key(math.MaxFloat64), nf.Max())
	}
	// 5 and +Inf span more than maxBins keys: 5 is kept, collapsed.
	if len(nf.counts) != maxBins || nf.counts[0] != 1 || nf.Count() != 3 {
		t.Errorf("+Inf: %d counters, lowest %d, count %d", len(nf.counts), nf.counts[0], nf.Count())
	}
}

// FuzzSketch fuzzes the collector's quantile sketch, whose samples are
// RTTs that phones upload. It feeds any bytes, read as float64 samples (NaN, ±Inf, ±0,
// subnormals and MaxFloat64 all reachable), split between two sketches
// by the first byte's bits. The store stays within maxBins, Count
// counts every sample, both merge orders equal one sketch fed the whole
// stream bit for bit, and Quantile is monotone in q.
func FuzzSketch(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := []byte{0x5a}
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(0.01, enc(1, 2, 3, 1000, 0.5))
	f.Add(0.01, enc(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, -1))
	f.Add(0.001, enc(math.SmallestNonzeroFloat64, 1e-300, 1e-100, 1, 1e100, 1e300))
	f.Add(1e-9, enc(1e-200, 1e200, 7, 7, 7))
	f.Fuzz(func(t *testing.T, alpha float64, data []byte) {
		if len(data) == 0 {
			return
		}
		split, data := data[0], data[1:]
		a, b, whole := New(alpha), New(alpha), New(alpha)
		var n uint64
		for i := 0; i+8 <= len(data); i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			dst := a
			if split>>(n%8)&1 == 1 {
				dst = b
			}
			dst.Add(x)
			whole.Add(x)
			n++
			for _, s := range []*Sketch{dst, whole} {
				if len(s.counts) > maxBins {
					t.Fatalf("alpha %v: store holds %d counters", s.alpha, len(s.counts))
				}
			}
		}
		if whole.Count() != n || a.Count()+b.Count() != n {
			t.Fatalf("count %d (parts %d+%d), want %d", whole.Count(), a.Count(), b.Count(), n)
		}
		ab, ba := a.Clone(), b.Clone()
		if err := ab.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := ba.Merge(a); err != nil {
			t.Fatal(err)
		}
		if d := storeDiff(ab, whole); d != "" {
			t.Fatalf("a+b vs whole: %s", d)
		}
		if d := storeDiff(ba, whole); d != "" {
			t.Fatalf("b+a vs whole: %s", d)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999, 1} {
			v := whole.Quantile(q)
			if v < prev || math.IsNaN(v) {
				t.Fatalf("q=%v: %v after %v", q, v, prev)
			}
			prev = v
		}
	})
}

func BenchmarkAdd(b *testing.B) {
	s := New(0.01)
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 50 * math.Exp(0.6*r.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&1023])
	}
}

func BenchmarkQuantile(b *testing.B) {
	s := New(0.01)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		s.Add(50 * math.Exp(0.6*r.NormFloat64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantile(0.5)
	}
}
