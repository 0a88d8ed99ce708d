package kernel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// referenceFind is the linear scan the Fenwick search replaces.
func referenceFind(vals []int64, target int64) int {
	for i, v := range vals {
		target -= v
		if target < 0 {
			return i
		}
	}
	return len(vals) - 1
}

func TestCountTreeAgainstLinearScan(t *testing.T) {
	r := rng.New(1)
	var tree CountTree
	const slots = 257 // off power-of-two on purpose
	tree.Grow(slots)
	vals := make([]int64, slots)
	for step := 0; step < 5000; step++ {
		i := r.Intn(slots)
		delta := int64(r.Intn(7)) - vals[i]%3 // mixed adds and removes
		if vals[i]+delta < 0 {
			delta = -vals[i]
		}
		tree.Add(i, delta)
		vals[i] += delta
		if total := tree.Total(); total > 0 {
			target := int64(r.Intn(int(total)))
			if got, want := tree.Find(target), referenceFind(vals, target); got != want {
				t.Fatalf("step %d: Find(%d) = %d, linear scan says %d", step, target, got, want)
			}
		}
	}
	var sum int64
	for i, v := range vals {
		if got := tree.Get(i); got != v {
			t.Fatalf("slot %d: Get = %d, want %d", i, got, v)
		}
		sum += v
		if got := tree.Prefix(i + 1); got != sum {
			t.Fatalf("Prefix(%d) = %d, want %d", i+1, got, sum)
		}
	}
	if tree.Total() != sum {
		t.Fatalf("Total = %d, want %d", tree.Total(), sum)
	}
}

func TestCountTreeGrowPreservesCounts(t *testing.T) {
	var tree CountTree
	for i := 0; i < 100; i++ {
		tree.Grow(i + 1)
		tree.Add(i, int64(i%5))
	}
	var sum int64
	for i := 0; i < 100; i++ {
		if got := tree.Get(i); got != int64(i%5) {
			t.Fatalf("slot %d lost its count after growth: %d", i, got)
		}
		sum += int64(i % 5)
	}
	if tree.Total() != sum {
		t.Fatalf("Total = %d, want %d", tree.Total(), sum)
	}
}

func TestCountTreeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative count did not panic")
		}
	}()
	var tree CountTree
	tree.Grow(1)
	tree.Add(0, -1)
}

func TestWeightTreeFindMatchesLinear(t *testing.T) {
	r := rng.New(2)
	var tree WeightTree
	const slots = 100
	tree.Grow(slots)
	vals := make([]float64, slots)
	for step := 0; step < 3000; step++ {
		i := r.Intn(slots)
		w := float64(r.Intn(20))
		tree.Set(i, w)
		vals[i] = w
		total := tree.Total()
		if total <= 0 {
			continue
		}
		u := r.Float64() * total
		got := tree.Find(u)
		rem := u
		want := slots - 1
		for j, v := range vals {
			rem -= v
			if rem < 0 {
				want = j
				break
			}
		}
		if got != want {
			t.Fatalf("step %d: Find(%v) = %d, want %d", step, u, got, want)
		}
	}
}

func TestWeightTreeTotalTracksSets(t *testing.T) {
	var tree WeightTree
	tree.Grow(10)
	tree.Set(3, 2.5)
	tree.Set(7, 1.5)
	tree.Set(3, 0.5)
	if math.Abs(tree.Total()-2.0) > 1e-12 {
		t.Fatalf("Total = %v, want 2", tree.Total())
	}
	if tree.Find(1.9) != 7 {
		t.Fatalf("Find(1.9) = %d, want 7", tree.Find(1.9))
	}
}

func TestCountsSamplerUniformity(t *testing.T) {
	r := rng.New(3)
	var c Counts[string]
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 7)
	const draws = 100000
	freq := map[string]int{}
	for i := 0; i < draws; i++ {
		k, ok := c.Pick(r)
		if !ok {
			t.Fatal("Pick failed on a populated sampler")
		}
		freq[k]++
	}
	for k, want := range map[string]float64{"a": 0.1, "b": 0.2, "c": 0.7} {
		got := float64(freq[k]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(%s) = %v, want %v", k, got, want)
		}
	}
}

func TestCountsSlotReuseDeterministic(t *testing.T) {
	run := func() []string {
		r := rng.New(9)
		var c Counts[string]
		var picks []string
		c.Add("x", 3)
		c.Add("y", 1)
		c.Add("y", -1) // releases y's slot
		c.Add("z", 2)  // must reuse it
		for i := 0; i < 50; i++ {
			k, _ := c.Pick(r)
			picks = append(picks, k)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs across identical replays: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestCountsEachAndAccessors(t *testing.T) {
	var c Counts[int]
	c.Add(10, 4)
	c.Add(20, 5)
	c.Add(10, -4)
	if c.Total() != 5 || len(c.slot) != 1 || c.Count(10) != 0 || c.Count(20) != 5 {
		t.Fatalf("accessors wrong: total=%d occupied=%d", c.Total(), len(c.slot))
	}
	seen := map[int]int{}
	c.Each(func(k, n int) { seen[k] = n })
	if len(seen) != 1 || seen[20] != 5 {
		t.Fatalf("Each saw %v", seen)
	}
}

func TestCountsPickExcluding(t *testing.T) {
	r := rng.New(4)
	var c Counts[string]
	c.Add("full", 90)
	c.Add("a", 5)
	c.Add("b", 5)
	for i := 0; i < 2000; i++ {
		k, ok := c.PickExcluding(r, "full")
		if !ok {
			t.Fatal("PickExcluding failed with churnable keys present")
		}
		if k == "full" {
			t.Fatal("excluded key sampled")
		}
	}
	// The masked counts must be restored.
	if c.Count("full") != 90 || c.Total() != 100 {
		t.Fatalf("counts not restored: full=%d total=%d", c.Count("full"), c.Total())
	}
	if _, ok := c.PickExcluding(r, "full", "a"); !ok {
		t.Fatal("PickExcluding with two exclusions should still find b")
	}
	c.Add("a", -5)
	c.Add("b", -5)
	if _, ok := c.PickExcluding(r, "full"); ok {
		t.Fatal("PickExcluding succeeded with only excluded keys present")
	}
}

func TestWeightedSampler(t *testing.T) {
	r := rng.New(5)
	var w Weighted[string]
	w.Set("slow", 10)
	w.Set("fast", 30)
	const draws = 50000
	fast := 0
	for i := 0; i < draws; i++ {
		k, ok := w.Pick(r)
		if !ok {
			t.Fatal("Pick failed")
		}
		if k == "fast" {
			fast++
		}
	}
	if got := float64(fast) / draws; math.Abs(got-0.75) > 0.01 {
		t.Errorf("P(fast) = %v, want 0.75", got)
	}
	w.Set("fast", 0)
	if _, held := w.slot["fast"]; held || math.Abs(w.Total()-10) > 1e-12 {
		t.Fatalf("release failed: total %v", w.Total())
	}
	w.Set("slow", 0)
	if _, ok := w.Pick(r); ok {
		t.Fatal("Pick succeeded on empty weighted sampler")
	}
}
