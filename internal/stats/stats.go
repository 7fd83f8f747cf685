// Package stats provides the statistical primitives the MopEye evaluation
// relies on: quantiles (the paper reports medians throughout), empirical
// CDFs sampled at fixed anchors (Figures 5 and 9–11), delay histograms
// with the bucket boundaries of Table 1, and mean confidence intervals
// (§4.1.2 reports 95% CIs for the relay overhead).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// MeanCI95 returns the mean of xs together with the half-width of its 95%
// confidence interval using the normal approximation (the sample counts in
// the paper's overhead experiments are large enough for this).
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	halfWidth = 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, halfWidth
}

// CDF is an empirical cumulative distribution function over float64
// samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the underlying samples.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return quantileSorted(c.sorted, q)
}

// Median returns the 0.5-quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// DelayHistogram buckets durations using the boundaries of Table 1:
// 0–1 ms, 1–2 ms, 2–5 ms, 5–10 ms, > 10 ms.
type DelayHistogram struct {
	Total  int
	Counts [5]int // indexes correspond to Buckets
}

// BucketLabels are the row labels of Table 1.
var BucketLabels = [5]string{"0~1ms", "1~2ms", "2~5ms", "5~10ms", ">10ms"}

// Add records one delay sample.
func (h *DelayHistogram) Add(d time.Duration) {
	h.Total++
	ms := d.Seconds() * 1000
	switch {
	case ms < 1:
		h.Counts[0]++
	case ms < 2:
		h.Counts[1]++
	case ms < 5:
		h.Counts[2]++
	case ms < 10:
		h.Counts[3]++
	default:
		h.Counts[4]++
	}
}

// LargeOverheads returns the number of samples above 1 ms, the quantity
// §3.5.1 calls "large writing overheads".
func (h *DelayHistogram) LargeOverheads() int {
	return h.Counts[1] + h.Counts[2] + h.Counts[3] + h.Counts[4]
}

// LargeFraction returns LargeOverheads()/Total, or 0 when empty.
func (h *DelayHistogram) LargeFraction() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.LargeOverheads()) / float64(h.Total)
}

// String renders the histogram as a Table 1 style column.
func (h *DelayHistogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Total %d", h.Total)
	for i, label := range BucketLabels {
		fmt.Fprintf(&b, "; %s %d", label, h.Counts[i])
	}
	return b.String()
}

// DurationsToMillis converts durations to float64 milliseconds, the unit
// every figure in the paper uses.
func DurationsToMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1000
	}
	return out
}
