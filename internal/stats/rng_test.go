package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(12345)
	b := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(42)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ≈0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(10) never produced %d in 1000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(11)
	rate := 0.5
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.05 {
		t.Fatalf("exponential mean %v, want ≈%v", mean, 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestBinomialBoundsAndMean(t *testing.T) {
	r := NewRNG(17)
	n, p := 3, 0.5
	counts := make([]int, n+1)
	trials := 100000
	var sum float64
	for i := 0; i < trials; i++ {
		v := r.Binomial(n, p)
		if v < 0 || v > n {
			t.Fatalf("Binomial(3,0.5) = %d", v)
		}
		counts[v]++
		sum += float64(v)
	}
	if mean := sum / float64(trials); math.Abs(mean-1.5) > 0.02 {
		t.Fatalf("binomial mean %v, want ≈1.5", mean)
	}
	// Distribution should be 1/8, 3/8, 3/8, 1/8.
	for v, want := range []float64{0.125, 0.375, 0.375, 0.125} {
		got := float64(counts[v]) / float64(trials)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("P(X=%d) = %v, want ≈%v", v, got, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(23)
	var sum, sumSq float64
	n := 200000
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean %v, want ≈10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev %v, want ≈2", math.Sqrt(variance))
	}
}

func TestFloat64PropertyInUnitInterval(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
