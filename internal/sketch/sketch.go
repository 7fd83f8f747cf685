// Package sketch provides a mergeable streaming quantile sketch: the
// collector-side aggregation primitive that makes `/v1/stats` O(1) in
// dataset size. The design is the DDSketch family (relative-error
// guarantees from logarithmically-spaced bins): a value x > 0 lands in
// bin ceil(log_gamma(x)), and the bin's midpoint estimate is within a
// factor (1±alpha) of every value stored in it, so any quantile comes
// back with bounded *relative* error — the right guarantee for RTTs,
// where a 1 ms error means something different at 5 ms than at 500 ms.
//
// The bins are one dense slice of counters indexed from an offset key,
// so a quantile is a prefix walk over them. Two properties matter:
//
//   - Memory is capped at maxBins (2,048) counters, 16 KB, whatever
//     streams through. At alpha = 1 % they span a ratio of 6×10¹⁷
//     (1 ns to about 20 years in ms); when the keys seen span more,
//     the lowest collapse into the lowest kept bin (DDSketch's
//     collapsing-lowest store). A collapsed sample still counts, at a
//     coarser value; quantiles whose rank lies above the collapsed
//     mass keep the ±alpha bound.
//
//   - The store is a function of the multiset of samples alone, so
//     Merge is exact: associative and commutative to the bit, and a
//     merge of two sketches equals one sketch fed both streams.
package sketch

import (
	"fmt"
	"math"
	"slices"
)

// DefaultAlpha is the default relative accuracy: quantile estimates are
// within ±1% of an exact value at the same rank.
const DefaultAlpha = 0.01

const (
	// maxBins caps the store: 2,048 counters of 8 bytes.
	maxBins = 2048
	// minAlpha is the finest accuracy New accepts. At it the keys of
	// the whole float64 range stay within ±4×10⁸, so key arithmetic
	// never overflows.
	minAlpha = 1e-6
)

// Sketch is a quantile sketch over float64 samples with relative
// accuracy alpha. Non-positive samples are counted in a zero bin (they
// contribute rank but estimate as 0); NaN and -0 are recorded as 0, and
// +Inf lands in the bin of math.MaxFloat64. The zero value is not usable;
// construct with New. A Sketch is not safe for concurrent use; callers
// lock around it.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	// counts[i] holds the samples of key offset+i, and counts[0] also
	// those of every collapsed key below offset. Both ends are
	// non-zero, and len(counts) <= maxBins.
	offset int
	counts []uint64
	zero   uint64 // samples <= 0
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// New creates an empty sketch with the given relative accuracy
// (0 < alpha < 1); alpha <= 0 or NaN selects DefaultAlpha, alpha >= 1
// selects 0.5, and alpha below 1e-6 selects 1e-6.
func New(alpha float64) *Sketch {
	switch {
	case !(alpha > 0):
		alpha = DefaultAlpha
	case alpha >= 1:
		alpha = 0.5
	case alpha < minAlpha:
		alpha = minAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// key returns the bin index of a positive value; +Inf takes the key of
// math.MaxFloat64.
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(min(x, math.MaxFloat64)) / s.lnGamma))
}

// estimate returns the midpoint value of a bin, 2·gamma^k/(1+gamma):
// within (1±alpha) of every value the bin holds. It scales the bin's
// lower bound, which is finite for every key, so only the top bin's
// estimate can overflow, and the clamp to Max catches that.
func (s *Sketch) estimate(k int) float64 {
	return math.Pow(s.gamma, float64(k-1)) * (2 * s.gamma / (1 + s.gamma))
}

// Add records one sample.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN records a sample n times.
func (s *Sketch) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	if x == 0 || math.IsNaN(x) {
		x = 0 // one zero, so Min and Max do not hang on the order ±0 came in
	}
	s.count += n
	s.sum += x * float64(n)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= 0 {
		s.zero += n
		return
	}
	k := s.key(x)
	if len(s.counts) == 0 {
		s.offset, s.counts = k, []uint64{n}
		return
	}
	if top := s.top(); k < s.offset || k > top {
		s.cover(min(k, s.offset), max(k, top))
	}
	s.counts[max(k, s.offset)-s.offset] += n
}

// top returns the highest key the store holds; the store is not empty.
func (s *Sketch) top() int { return s.offset + len(s.counts) - 1 }

// cover re-lays a non-empty store over keys lo..hi, a range that
// contains its own. Past maxBins keys the lowest are collapsed: lo is
// raised to hi-maxBins+1 and every count below it is folded into the
// new lowest bin.
func (s *Sketch) cover(lo, hi int) {
	lo = max(lo, hi-maxBins+1)
	if lo == s.offset && hi == s.top() {
		return
	}
	c := make([]uint64, hi-lo+1)
	for i, n := range s.counts {
		c[max(s.offset+i, lo)-lo] += n
	}
	s.offset, s.counts = lo, c
}

// Count returns the number of samples recorded.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest sample (exact), or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (exact), or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Bins returns the number of occupied bins. The store itself holds
// between Bins and maxBins counters.
func (s *Sketch) Bins() int {
	occupied := 0
	for _, n := range s.counts {
		if n != 0 {
			occupied++
		}
	}
	return occupied
}

// Quantile returns the q-quantile estimate (0 <= q <= 1). The estimate
// is within relative error alpha of the exact sample at the same
// closest rank, clamped to the exact [Min, Max]. Returns 0 when empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// Rank of the wanted sample among count samples, 0-based.
	rank := uint64(q * float64(s.count-1))
	if rank < s.zero {
		return clamp(0, s.min, s.max)
	}
	seen := s.zero
	for i, n := range s.counts {
		seen += n
		if rank < seen {
			return clamp(s.estimate(s.offset+i), s.min, s.max)
		}
	}
	return s.max
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Merge folds o into s. Only sketches of equal alpha merge (their bin
// boundaries coincide, making the merge an exact bin-wise addition —
// associative and commutative). o is left unchanged.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("sketch: merging alpha %v into %v", o.alpha, s.alpha)
	}
	if len(s.counts) == 0 {
		s.offset, s.counts = o.offset, slices.Clone(o.counts)
	} else if len(o.counts) > 0 {
		s.cover(min(s.offset, o.offset), max(s.top(), o.top()))
		for i, n := range o.counts {
			s.counts[max(o.offset+i, s.offset)-s.offset] += n
		}
	}
	s.zero += o.zero
	s.count += o.count
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	return nil
}

// Clone returns an independent copy.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.counts = slices.Clone(s.counts)
	return &c
}
