package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median: %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median: %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median: %v", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 9 {
		t.Errorf("endpoints: %v %v", Quantile(xs, 0), Quantile(xs, 1))
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); !almostEqual(got, 2.5, 1e-9) {
		t.Errorf("q25: %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean: %v", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2.138, 0.001) {
		t.Errorf("stddev: %v", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("single-sample stddev should be 0")
	}
}

func TestMeanCI95(t *testing.T) {
	xs := make([]float64, 400)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	mean, hw := MeanCI95(xs)
	if !almostEqual(mean, 10, 0.2) {
		t.Errorf("mean: %v", mean)
	}
	// 95% CI half width for sigma=1, n=400 is about 1.96/20 ~ 0.098.
	if hw < 0.05 || hw > 0.2 {
		t.Errorf("half width: %v", hw)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	c := NewCDF(xs)
	prev := -1.0
	for x := 0.0; x <= 500; x += 5 {
		y := c.At(x)
		if y < prev {
			t.Fatalf("CDF not monotone at x=%v", x)
		}
		prev = y
	}
}

func TestDelayHistogramBuckets(t *testing.T) {
	var h DelayHistogram
	h.Add(500 * time.Microsecond)
	h.Add(1500 * time.Microsecond)
	h.Add(3 * time.Millisecond)
	h.Add(7 * time.Millisecond)
	h.Add(50 * time.Millisecond)
	want := [5]int{1, 1, 1, 1, 1}
	if h.Counts != want {
		t.Errorf("counts: %v", h.Counts)
	}
	if h.Total != 5 || h.LargeOverheads() != 4 {
		t.Errorf("total %d large %d", h.Total, h.LargeOverheads())
	}
	if !almostEqual(h.LargeFraction(), 0.8, 1e-9) {
		t.Errorf("large fraction: %v", h.LargeFraction())
	}
}

func TestDelayHistogramBoundaries(t *testing.T) {
	var h DelayHistogram
	h.Add(time.Millisecond) // exactly 1ms goes to the 1~2ms bucket
	if h.Counts[1] != 1 {
		t.Errorf("1ms bucket: %v", h.Counts)
	}
}

func TestDurationsToMillis(t *testing.T) {
	got := DurationsToMillis([]time.Duration{time.Millisecond, 2500 * time.Microsecond})
	if got[0] != 1 || got[1] != 2.5 {
		t.Errorf("%v", got)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		return v1 <= v2 && v1 >= slices.Min(xs) && v2 <= slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CDF.At agrees with a direct count.
func TestQuickCDFAgainstDirectCount(t *testing.T) {
	f := func(raw []float64, x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		c := NewCDF(xs)
		count := 0
		for _, v := range xs {
			if v <= x {
				count++
			}
		}
		want := 0.0
		if len(xs) > 0 {
			want = float64(count) / float64(len(xs))
		}
		return almostEqual(c.At(x), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Median sits between the extremes and equals the sorted
// middle for odd-length inputs.
func TestQuickMedian(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		if m < slices.Min(xs) || m > slices.Max(xs) {
			return false
		}
		if len(xs)%2 == 1 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			return m == s[len(s)/2]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
