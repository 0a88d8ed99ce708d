// Fenwick (binary indexed) trees over slot-addressed counts and weights.
// They are the kernel's O(log n) replacement for the linear cumulative
// scans the simulators used for "pick a uniform peer" and "pick a
// rate-weighted branch": point update, total, and inverse-prefix-sum search
// are all logarithmic in the number of slots.
package kernel

import "math/bits"

// CountTree is a Fenwick tree over non-negative int64 counts. The zero
// value is an empty tree; slots are 0-based and the tree grows on demand
// (amortized O(1) per added slot via capacity doubling). It is not safe for
// concurrent use, matching the single-stream discipline of the simulators.
type CountTree struct {
	tree  []int64 // 1-based Fenwick array over vals
	vals  []int64 // per-slot counts (kept for exact deltas and rebuilds)
	total int64
}

// Len returns the number of slots.
func (t *CountTree) Len() int { return len(t.vals) }

// Total returns the sum of all counts.
func (t *CountTree) Total() int64 { return t.total }

// Get returns the count at slot i.
func (t *CountTree) Get(i int) int64 { return t.vals[i] }

// Grow ensures the tree has at least n slots. Each appended slot costs
// O(log n): the new slot starts at zero, and its Fenwick entry is the sum
// of the range (j − lowbit(j), j−1] of existing slots, computable from two
// prefix sums over entries that already exist.
func (t *CountTree) Grow(n int) {
	for len(t.vals) < n {
		if len(t.tree) == 0 {
			t.tree = append(t.tree, 0) // index 0 is unused in Fenwick layout
		}
		j := len(t.vals) + 1 // 1-based index of the new slot
		t.tree = append(t.tree, t.Prefix(j-1)-t.Prefix(j-(j&-j)))
		t.vals = append(t.vals, 0)
	}
}

// Add adds delta to slot i (the result must stay non-negative).
func (t *CountTree) Add(i int, delta int64) {
	if delta == 0 {
		return
	}
	if t.vals[i]+delta < 0 {
		panic("kernel: CountTree count would go negative")
	}
	t.vals[i] += delta
	t.total += delta
	for j := i + 1; j <= len(t.vals); j += j & -j {
		t.tree[j] += delta
	}
}

// Prefix returns the sum of counts in slots [0, i).
func (t *CountTree) Prefix(i int) int64 {
	var sum int64
	for j := i; j > 0; j -= j & -j {
		sum += t.tree[j]
	}
	return sum
}

// Find returns the slot holding the target-th unit: the smallest slot i
// with Prefix(i+1) > target. The caller must ensure 0 <= target < Total();
// out-of-range targets clamp to the last slot. O(log n) binary lifting.
func (t *CountTree) Find(target int64) int {
	pos, rem := 0, target
	for bit := highestBit(len(t.vals)); bit > 0; bit >>= 1 {
		if next := pos + bit; next <= len(t.vals) && t.tree[next] <= rem {
			pos = next
			rem -= t.tree[next]
		}
	}
	if pos >= len(t.vals) {
		pos = len(t.vals) - 1
	}
	return pos
}

// WeightTree is the float64 analogue of CountTree, for rate-weighted
// branch selection. Slots hold absolute weights via Set, so floating-point
// drift in the internal nodes is bounded by the update count, and the
// sampling target is always drawn against the tree's own Total().
type WeightTree struct {
	tree  []float64
	vals  []float64
	total float64
}

// Len returns the number of slots.
func (t *WeightTree) Len() int { return len(t.vals) }

// Total returns the sum of all weights.
func (t *WeightTree) Total() float64 { return t.total }

// Grow ensures the tree has at least n slots, appending each new slot in
// O(log n) exactly as CountTree.Grow does.
func (t *WeightTree) Grow(n int) {
	for len(t.vals) < n {
		if len(t.tree) == 0 {
			t.tree = append(t.tree, 0)
		}
		j := len(t.vals) + 1
		t.tree = append(t.tree, t.Prefix(j-1)-t.Prefix(j-(j&-j)))
		t.vals = append(t.vals, 0)
	}
}

// Prefix returns the sum of weights in slots [0, i).
func (t *WeightTree) Prefix(i int) float64 {
	var sum float64
	for j := i; j > 0; j -= j & -j {
		sum += t.tree[j]
	}
	return sum
}

// Set replaces the weight at slot i (weights must be non-negative).
func (t *WeightTree) Set(i int, w float64) {
	if w < 0 {
		panic("kernel: WeightTree weight must be non-negative")
	}
	delta := w - t.vals[i]
	if delta == 0 {
		return
	}
	t.vals[i] = w
	t.total += delta
	for j := i + 1; j <= len(t.vals); j += j & -j {
		t.tree[j] += delta
	}
}

// Find returns the slot whose cumulative weight interval contains u, for
// 0 <= u < Total(); out-of-range values clamp to the last positive slot.
func (t *WeightTree) Find(u float64) int {
	pos, rem := 0, u
	for bit := highestBit(len(t.vals)); bit > 0; bit >>= 1 {
		if next := pos + bit; next <= len(t.vals) && t.tree[next] <= rem {
			pos = next
			rem -= t.tree[next]
		}
	}
	if pos >= len(t.vals) {
		pos = len(t.vals) - 1
	}
	// Floating-point round-off can land on an empty slot; step back to the
	// nearest slot with positive weight, mirroring the linear scan's guard.
	for pos > 0 && t.vals[pos] == 0 {
		pos--
	}
	return pos
}

// highestBit returns the largest power of two <= n (0 for n <= 0).
func highestBit(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}
