package kernel

import "repro/internal/rng"

// Counts is a dynamic multiset over comparable keys with O(log n) uniform
// sampling, the kernel's replacement for the simulators' linear scans over
// occupied peer types. Keys are assigned Fenwick slots on first appearance
// and released when their count returns to zero (freed slots are reused
// LIFO), so the slot layout — and therefore every sampling outcome at a
// fixed RNG stream — is a deterministic function of the event history.
type Counts[K comparable] struct {
	tree CountTree
	slot map[K]int
	keys []K
	free []int
}

// Total returns the number of elements (with multiplicity).
func (c *Counts[K]) Total() int { return int(c.tree.Total()) }

// Count returns the multiplicity of k.
func (c *Counts[K]) Count(k K) int {
	s, ok := c.slot[k]
	if !ok {
		return 0
	}
	return int(c.tree.Get(s))
}

// Add changes the multiplicity of k by delta. Driving a count negative
// panics: it means the caller's bookkeeping broke an invariant.
func (c *Counts[K]) Add(k K, delta int) {
	if delta == 0 {
		return
	}
	s, ok := c.slot[k]
	if !ok {
		if delta < 0 {
			panic("kernel: Counts.Add below zero for absent key")
		}
		s = c.acquire(k)
	}
	c.tree.Add(s, int64(delta))
	if c.tree.Get(s) == 0 {
		delete(c.slot, k)
		c.free = append(c.free, s)
	}
}

func (c *Counts[K]) acquire(k K) int {
	if c.slot == nil {
		c.slot = make(map[K]int)
	}
	var s int
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		s = c.tree.Len()
		c.tree.Grow(s + 1)
	}
	if s < len(c.keys) {
		c.keys[s] = k
	} else {
		c.keys = append(c.keys, k)
	}
	c.slot[k] = s
	return s
}

// Each calls fn for every key with positive count, in slot order (a
// deterministic function of the event history, not of key order).
func (c *Counts[K]) Each(fn func(k K, count int)) {
	for i := 0; i < c.tree.Len(); i++ {
		if n := c.tree.Get(i); n > 0 {
			fn(c.keys[i], int(n))
		}
	}
}

// Pick draws a uniform element of the multiset in O(log n). It reports
// false when the multiset is empty.
func (c *Counts[K]) Pick(r *rng.RNG) (K, bool) {
	var zero K
	total := c.tree.Total()
	if total <= 0 {
		return zero, false
	}
	return c.keys[c.tree.Find(int64(r.Intn(int(total))))], true
}

// PickExcluding draws a uniform element among those whose key is not in
// excl (the scenario layer uses it to churn a uniform not-yet-complete
// peer). It reports false when nothing remains after the exclusions. The
// excluded slots are masked and restored in place, so the call is still
// O((1+|excl|)·log n) and allocation-free for |excl| <= 2.
func (c *Counts[K]) PickExcluding(r *rng.RNG, excl ...K) (K, bool) {
	var zero K
	var masked [2]struct {
		slot int
		n    int64
	}
	nMasked := 0
	for _, k := range excl {
		if s, ok := c.slot[k]; ok {
			if n := c.tree.Get(s); n > 0 {
				if nMasked == len(masked) {
					panic("kernel: PickExcluding supports at most 2 exclusions")
				}
				masked[nMasked].slot, masked[nMasked].n = s, n
				nMasked++
				c.tree.Add(s, -n)
			}
		}
	}
	var out K
	ok := false
	if total := c.tree.Total(); total > 0 {
		out = c.keys[c.tree.Find(int64(r.Intn(int(total))))]
		ok = true
	}
	for i := nMasked - 1; i >= 0; i-- {
		c.tree.Add(masked[i].slot, masked[i].n)
	}
	if !ok {
		return zero, false
	}
	return out, true
}

// Weighted is a dynamic weighted key set with O(log n) weight-proportional
// sampling — the rate-weighted analogue of Counts, used for clock-rate
// selection (e.g. the fast-recovery variant's sped-up contact clocks).
type Weighted[K comparable] struct {
	tree WeightTree
	slot map[K]int
	keys []K
	free []int
}

// Total returns the sum of all weights.
func (w *Weighted[K]) Total() float64 { return w.tree.Total() }

// Set replaces the weight of k; weight 0 releases the key's slot.
func (w *Weighted[K]) Set(k K, weight float64) {
	s, ok := w.slot[k]
	if !ok {
		if weight == 0 {
			return
		}
		s = w.acquire(k)
	}
	w.tree.Set(s, weight)
	if weight == 0 {
		delete(w.slot, k)
		w.free = append(w.free, s)
	}
}

func (w *Weighted[K]) acquire(k K) int {
	if w.slot == nil {
		w.slot = make(map[K]int)
	}
	var s int
	if n := len(w.free); n > 0 {
		s = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		s = w.tree.Len()
		w.tree.Grow(s + 1)
	}
	if s < len(w.keys) {
		w.keys[s] = k
	} else {
		w.keys = append(w.keys, k)
	}
	w.slot[k] = s
	return s
}

// Pick draws a key with probability proportional to its weight, consuming
// one uniform variate. It reports false when the total weight is zero.
func (w *Weighted[K]) Pick(r *rng.RNG) (K, bool) {
	var zero K
	total := w.tree.Total()
	if total <= 0 {
		return zero, false
	}
	return w.keys[w.tree.Find(r.Float64()*total)], true
}
