package rng

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestReseedRestarts(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Uint64()
	r.Reseed(7)
	if got := r.Uint64(); got != first {
		t.Errorf("Reseed did not restart stream: %d vs %d", got, first)
	}
}

func TestSplitIndependent(t *testing.T) {
	r := New(3)
	child := r.Split()
	if child.Uint64() == r.Uint64() {
		t.Error("split stream should not track parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const rate, draws = 2.5, 200000
	var sum float64
	for i := 0; i < draws; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential %v", x)
		}
		sum += x
	}
	mean := sum / draws
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestCategorical(t *testing.T) {
	r := New(13)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		idx, err := r.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want 3", ratio)
	}
}

func TestCategoricalEmpty(t *testing.T) {
	r := New(1)
	if _, err := r.Categorical(nil); !errors.Is(err, ErrEmptyWeights) {
		t.Errorf("nil weights err = %v", err)
	}
	if _, err := r.Categorical([]float64{0, -1}); !errors.Is(err, ErrEmptyWeights) {
		t.Errorf("non-positive weights err = %v", err)
	}
}

func TestCategoricalNegativeIgnored(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		idx, err := r.Categorical([]float64{-5, 1})
		if err != nil || idx != 1 {
			t.Fatalf("draw = %d, err = %v", idx, err)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 4, 50} {
		r := New(uint64(mean*1000) + 17)
		const draws = 50000
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			x := float64(r.Poisson(mean))
			sum += x
			sumsq += x * x
		}
		m := sum / draws
		v := sumsq/draws - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson(%v) var = %v", mean, v)
		}
	}
	if New(1).Poisson(0) != 0 || New(1).Poisson(-2) != 0 {
		t.Error("Poisson of non-positive mean must be 0")
	}
}

// Property: Intn stays within bounds for arbitrary positive n.
func TestQuickIntnBounds(t *testing.T) {
	r := New(99)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bernoulli respects clamped extremes.
func TestQuickBernoulliExtremes(t *testing.T) {
	r := New(77)
	f := func(p float64) bool {
		switch {
		case p <= 0:
			return !r.Bernoulli(p)
		case p >= 1:
			return r.Bernoulli(p)
		default:
			r.Bernoulli(p) // just must not panic
			return true
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Picker must be bit-identical to Categorical on a shared stream: same
// variate consumption, same index for every draw.
func TestPickerMatchesCategorical(t *testing.T) {
	weights := [][]float64{
		{1},
		{0.3, 0.7},
		{2, 0, 1, -3, 5},
		{1e-9, 1e9, 1e-9},
		{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
	}
	for _, w := range weights {
		p, err := NewPicker(w)
		if err != nil {
			t.Fatalf("NewPicker(%v): %v", w, err)
		}
		a, b := New(99), New(99)
		for i := 0; i < 10_000; i++ {
			want, err := a.Categorical(w)
			if err != nil {
				t.Fatalf("Categorical(%v): %v", w, err)
			}
			if got := p.Pick(b); got != want {
				t.Fatalf("draw %d of %v: Pick = %d, Categorical = %d", i, w, got, want)
			}
		}
		// The streams must stay in lockstep: both consumed one variate per draw.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("weights %v: Picker consumed a different number of variates", w)
		}
	}
}

func TestPickerRejectsEmptyWeights(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0}, {-1, 0}} {
		if _, err := NewPicker(w); err == nil {
			t.Errorf("NewPicker(%v) accepted weights with no positive entry", w)
		}
	}
}

func TestPickerCopiesWeights(t *testing.T) {
	w := []float64{1, 1}
	p, err := NewPicker(w)
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 0 // mutate after construction; the picker must be unaffected
	counts := [2]int{}
	r := New(5)
	for i := 0; i < 1000; i++ {
		counts[p.Pick(r)]++
	}
	if counts[0] < 400 || counts[1] < 400 {
		t.Errorf("mutating the source slice skewed draws: %v", counts)
	}
}

func TestPickerAllocFree(t *testing.T) {
	p, err := NewPicker([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	sink := 0
	if n := testing.AllocsPerRun(1000, func() { sink += p.Pick(r) }); n != 0 {
		t.Errorf("Pick allocates %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// TestStreamsOwnCacheLines: streams derived one after another, as the
// engine derives replica streams, each fill one whole 64-byte line, so no
// two of them share a line and concurrent replicas cannot false-share
// generator state.
func TestStreamsOwnCacheLines(t *testing.T) {
	const line = 64
	if size := unsafe.Sizeof(RNG{}); size != line {
		t.Fatalf("RNG is %d bytes, want %d", size, line)
	}
	base := New(1)
	streams := make([]*RNG, 1000) // live together, like a job's streams
	for i := range streams {
		streams[i] = base.Split()
		if addr := uintptr(unsafe.Pointer(streams[i])); addr%line != 0 {
			t.Fatalf("stream %d at %#x straddles two cache lines", i, addr)
		}
	}
}
