package main

import (
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailRule pins the highest percentile with at least ten samples
// beyond it, by nearest rank, at the sample counts where it changes.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{39, 50, 20, 19},
		{40, 75, 30, 10},
		{100, 90, 90, 10},
		{999, 95, 950, 49}, // p99 would leave only 999 − 990 = 9 beyond
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
		{200000, 99.99, 199980, 20},
	} {
		pct, v, beyond, ok := tail(seq(c.n))
		if !ok || pct != c.pct || v != c.value || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%v %v (%d beyond, ok %v), want p%v %v (%d beyond)", c.n, pct, v, beyond, ok, c.pct, c.value, c.beyond)
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	for _, n := range []int{0, 1, 10, 19} {
		if pct, v, beyond, ok := tail(seq(n)); ok || pct != 0 || v != 0 || beyond != 0 {
			t.Errorf("n=%d: tail = p%v %v (%d beyond, ok %v), want no tail", n, pct, v, beyond, ok)
		}
	}
}
