package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 3 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 3 {
		t.Fatalf("P50 = %v", s.P50)
	}
	// Sample stddev of 1..5 is sqrt(2.5).
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Stddev = %v", s.Stddev)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.Stddev != 0 {
		t.Fatalf("single-value summary = %+v", s)
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 {
		t.Fatal("P0 should be min")
	}
	if Percentile(sorted, 100) != 40 {
		t.Fatal("P100 should be max")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Interpolation: P50 of 4 elements = midpoint of 20 and 30.
	if got := Percentile(sorted, 50); got != 25 {
		t.Fatalf("P50 = %v, want 25", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("mean of 2,4,6 should be 4")
	}
}
