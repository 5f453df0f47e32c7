package rng

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := parent.Split(1)
	// Same label reproduces the same stream.
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatalf("Split(1) not reproducible at draw %d", i)
		}
	}
	// Different labels give different streams.
	c1b := parent.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1b.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across split labels", same)
	}
}

func TestSplitDoesNotDisturbParent(t *testing.T) {
	a, b := New(11), New(11)
	_ = a.Split(99)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ≈ 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d outside [9000,11000]", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformitySmallRange(t *testing.T) {
	r := New(13)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Uint64n(3)]++
	}
	for i, c := range counts {
		if c < 9500 || c > 10500 {
			t.Errorf("bucket %d count %d outside [9500,10500]", i, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ≈ 1", variance)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ≈ 1", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(23)
	for _, mean := range []float64{0.5, 4, 32, 200} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(29)
	cases := []struct {
		n int
		p float64
	}{{10, 0.3}, {1000, 0.05}, {8192, 0.01}, {8192, 0.9}}
	for _, c := range cases {
		const trials = 20000
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		want := float64(c.n) * c.p
		got := sum / trials
		if math.Abs(got-want) > 0.03*want+0.2 {
			t.Errorf("Binomial(%d,%v) mean = %v, want ≈ %v", c.n, c.p, got, want)
		}
	}
	if r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 || r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial edge cases wrong")
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	r := New(31)
	z := NewZipf(1000, 0.99)
	counts := map[int64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and decay must be steep.
	if counts[0] < counts[1] {
		t.Errorf("rank0 (%d) not more popular than rank1 (%d)", counts[0], counts[1])
	}
	if frac := float64(counts[0]) / n; frac < 0.08 {
		t.Errorf("rank0 fraction = %v, want > 0.08 for theta=0.99", frac)
	}
	top10 := 0
	for i := int64(0); i < 10; i++ {
		top10 += counts[i]
	}
	if frac := float64(top10) / n; frac < 0.3 {
		t.Errorf("top-10 fraction = %v, want > 0.3", frac)
	}
}

// directZeta is the oracle for the shared table: ζ(n, θ) summed by a
// direct left-to-right loop up to maxExact, plus the same integral tail.
func directZeta(n int64, theta float64) float64 {
	sum := 0.0
	limit := min(n, maxExact)
	for i := int64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > limit {
		a := 1 - theta
		sum += (math.Pow(float64(n), a) - math.Pow(float64(limit), a)) / a
	}
	return sum
}

// resetZetaTable empties the process-wide table, so a test sees it grow
// from nothing in the order the test requests.
func resetZetaTable() {
	zetaSums.mu.Lock()
	defer zetaSums.mu.Unlock()
	zetaSums.sums = make(map[uint64][]float64)
}

// zetaSizes are the population sizes the table must serve: tiny ones, the
// cold and hot regions of YCSB-C and stg_0 on the experiment device
// (footprint 707,788 pages), both sides of the exact-sum cap, and a
// population far past it.
var zetaSizes = []int64{1, 2, 3, 1000, 268959, 283116, 424672, 438829,
	1<<20 - 1, 1 << 20, 1<<20 + 1, 1 << 28}

func TestZetaTableMatchesDirectSum(t *testing.T) {
	asc := append([]int64(nil), zetaSizes...)
	desc := make([]int64, len(asc))
	for i, n := range asc {
		desc[len(asc)-1-i] = n
	}
	// Alternate the smallest and largest remaining sizes.
	var inter []int64
	for lo, hi := 0, len(asc)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		inter = append(inter, asc[lo])
		if lo != hi {
			inter = append(inter, asc[hi])
		}
	}
	t.Cleanup(resetZetaTable)
	for _, theta := range []float64{0.5, 0.9, 0.99} {
		want := make(map[int64]uint64, len(asc))
		for _, n := range asc {
			want[n] = math.Float64bits(directZeta(n, theta))
		}
		for _, order := range []struct {
			name  string
			sizes []int64
		}{{"ascending", asc}, {"descending", desc}, {"interleaved", inter}} {
			resetZetaTable()
			for _, n := range order.sizes {
				if got := math.Float64bits(zeta(n, theta)); got != want[n] {
					t.Errorf("θ=%v %s: zeta(%d) = %v, direct sum %v", theta, order.name,
						n, math.Float64frombits(got), math.Float64frombits(want[n]))
				}
			}
			zetaSums.mu.Lock()
			s := zetaSums.sums[math.Float64bits(theta)]
			zetaSums.mu.Unlock()
			if len(s) != maxExact || cap(s) != maxExact {
				t.Errorf("θ=%v %s: table len %d cap %d, want both %d", theta, order.name,
					len(s), cap(s), maxExact)
			}
		}
	}
}

// TestZetaTableConcurrent has goroutines extend and read one θ's table at
// different n at once; every result must still equal the direct sum.
func TestZetaTableConcurrent(t *testing.T) {
	const theta = 0.99
	want := make([]uint64, len(zetaSizes))
	for i, n := range zetaSizes {
		want[i] = math.Float64bits(directZeta(n, theta))
	}
	resetZetaTable()
	t.Cleanup(resetZetaTable)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range zetaSizes {
				i := (j + 3*g) % len(zetaSizes)
				if got := math.Float64bits(zeta(zetaSizes[i], theta)); got != want[i] {
					t.Errorf("goroutine %d: zeta(%d) = %v, direct sum %v", g, zetaSizes[i],
						math.Float64frombits(got), math.Float64frombits(want[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkNewZipf builds the sampler of YCSB-C's hot region on the
// experiment device, as every trace generation does.
func BenchmarkNewZipf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if z := NewZipf(283116, 0.99); z.N() != 283116 {
			b.Fatalf("N() = %d", z.N())
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 0.99) },
		func() { NewZipf(10, 0) },
		func() { NewZipf(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	r := New(37)
	z := NewZipf(1<<16, 0.99)
	counts := map[int64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.ScrambledSample(r)
		if v < 0 || v >= z.N() {
			t.Fatalf("scrambled sample %d out of range", v)
		}
		counts[v]++
	}
	// The single hottest key should NOT be key 0 region systematically; check
	// that the hottest key is still hot (scramble preserves popularity).
	hottest, hotCount := int64(-1), 0
	for k, c := range counts {
		if c > hotCount {
			hottest, hotCount = k, c
		}
	}
	if hotCount < n/20 {
		t.Errorf("hottest key only %d/%d draws; scramble destroyed skew", hotCount, n)
	}
	_ = hottest
}

func TestLatestFavorsNewest(t *testing.T) {
	r := New(41)
	l := NewLatest(NewZipf(1000, 0.99))
	const max = 500
	counts := make([]int, max)
	const n = 100000
	for i := 0; i < n; i++ {
		v := l.Sample(r, max)
		if v < 0 || v >= max {
			t.Fatalf("latest sample %d out of range [0,%d)", v, max)
		}
		counts[v]++
	}
	if counts[max-1] < counts[0] {
		t.Errorf("newest item (%d draws) not hotter than oldest (%d draws)",
			counts[max-1], counts[0])
	}
	if l.Sample(r, 0) != 0 {
		t.Error("Sample with max=0 should return 0")
	}
}

func TestZipfRankOrderingProperty(t *testing.T) {
	// Popularity must be non-increasing in rank (statistically).
	f := func(seed uint64) bool {
		r := New(seed)
		z := NewZipf(64, 0.9)
		counts := make([]int, 64)
		for i := 0; i < 20000; i++ {
			counts[z.Sample(r)]++
		}
		// Compare aggregated halves rather than adjacent ranks to keep noise down.
		lo, hi := 0, 0
		for i := 0; i < 32; i++ {
			lo += counts[i]
			hi += counts[32+i]
		}
		return lo > hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) frequency = %v", f)
	}
}
