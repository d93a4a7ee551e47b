package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(99)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d has %d draws, want ~%g", i, c, want)
		}
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(5)
	const p, draws = 0.25, 50000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / draws
	if math.Abs(mean-1/p) > 0.15 {
		t.Errorf("Geometric(%g) mean = %g, want ~%g", p, mean, 1/p)
	}
}

func TestRNGGeometricEdge(t *testing.T) {
	r := NewRNG(1)
	if g := r.Geometric(1); g != 1 {
		t.Errorf("Geometric(1) = %d, want 1", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	out := make([]int, 32)
	r.Perm(out)
	seen := make(map[int]bool)
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	a := NewRNG(42).Derive(1)
	b := NewRNG(42).Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams with different labels overlap: %d/100", same)
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// TestNormalMatchesUniformSum: Normal is bit for bit mean + sd*(-6 + the
// sum of 12 Float64 draws, added in order), and leaves the generator in
// the state those 12 draws would.
func TestNormalMatchesUniformSum(t *testing.T) {
	params := [][2]float64{{8, 2.5}, {5, 1.5}, {0, 1}, {-3.25, 1e-3}}
	for seed := uint64(0); seed < 10_000; seed++ {
		r, twin := NewRNG(seed), NewRNG(seed)
		for _, p := range params {
			got := r.Normal(p[0], p[1])
			s := -6.0
			for i := 0; i < 12; i++ {
				s += twin.Float64()
			}
			want := p[0] + p[1]*s
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d Normal(%g, %g) = %v, uniform sum gives %v", seed, p[0], p[1], got, want)
			}
		}
		if a, b := r.Uint64(), twin.Uint64(); a != b {
			t.Fatalf("seed %d: next Uint64 %#x after Normal, %#x after the uniform sum", seed, a, b)
		}
	}
}
