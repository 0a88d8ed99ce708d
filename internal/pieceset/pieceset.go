// Package pieceset represents subsets of the piece universe {1..K} as
// bitmasks and provides the set algebra used throughout the model: the type
// of a peer in the Zhu–Hajek model is exactly such a subset.
//
// Pieces are numbered 1..K externally (matching the paper) and stored in
// bits 0..K-1 internally. K is limited to 30 so that a Set always fits in a
// uint32 and the full type space (2^K subsets) remains enumerable for the
// exact solver at small K.
package pieceset

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// MaxK is the largest supported number of pieces.
const MaxK = 30

// ErrPieceRange indicates a piece index outside 1..K.
var ErrPieceRange = errors.New("pieceset: piece index out of range")

// Set is a subset of pieces {1..K}, stored as a bitmask. The zero value is
// the empty set.
type Set uint32

// Empty is the empty piece set (a newly arrived peer with no pieces).
const Empty Set = 0

// Full returns the complete collection {1..k}.
func Full(k int) Set {
	if k <= 0 {
		return Empty
	}
	if k > MaxK {
		k = MaxK
	}
	return Set(uint32(1)<<uint(k) - 1)
}

// Of builds a set from explicit piece numbers (1-based). Out-of-range pieces
// are rejected.
func Of(pieces ...int) (Set, error) {
	var s Set
	for _, p := range pieces {
		if p < 1 || p > MaxK {
			return Empty, fmt.Errorf("%w: %d", ErrPieceRange, p)
		}
		s |= 1 << uint(p-1)
	}
	return s, nil
}

// MustOf is Of for constant inputs; it panics on invalid pieces and is meant
// for test fixtures and example setup.
func MustOf(pieces ...int) Set {
	s, err := Of(pieces...)
	if err != nil {
		panic(err)
	}
	return s
}

// Has reports whether piece p (1-based) is in the set.
func (s Set) Has(p int) bool {
	if p < 1 || p > MaxK {
		return false
	}
	return s&(1<<uint(p-1)) != 0
}

// With returns s ∪ {p}.
func (s Set) With(p int) Set {
	if p < 1 || p > MaxK {
		return s
	}
	return s | 1<<uint(p-1)
}

// Without returns s − {p}.
func (s Set) Without(p int) Set {
	if p < 1 || p > MaxK {
		return s
	}
	return s &^ (1 << uint(p-1))
}

// Minus returns s − t, the pieces s has that t lacks. In the model this is
// the set of pieces an uploader of type s can usefully send to a peer of
// type t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Complement returns {1..k} − s.
func (s Set) Complement(k int) Set { return Full(k) &^ s }

// Size returns |s|.
func (s Set) Size() int { return bits.OnesCount32(uint32(s)) }

// IsEmpty reports whether s is the empty set.
func (s Set) IsEmpty() bool { return s == 0 }

// IsFull reports whether s equals the complete collection {1..k}.
func (s Set) IsFull(k int) bool { return s == Full(k) }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// ForEach calls fn for every piece in s in increasing order — the same
// sequence Pieces returns — without allocating. fn is only invoked, never
// retained, so closure arguments stay on the caller's stack; this is the
// iterator every per-event path in the simulators uses.
func (s Set) ForEach(fn func(piece int)) {
	for m := uint32(s); m != 0; m &= m - 1 {
		fn(bits.TrailingZeros32(m) + 1)
	}
}

// NthPiece returns the i-th smallest piece in s (0-based rank). It returns
// 0 if i is out of range; callers use it to pick a uniform random element of
// the useful set without allocating.
func (s Set) NthPiece(i int) int {
	if i < 0 || i >= s.Size() {
		return 0
	}
	m := uint32(s)
	for ; i > 0; i-- {
		m &= m - 1
	}
	return bits.TrailingZeros32(m) + 1
}

// LowestPiece returns the smallest piece in s, or 0 if s is empty.
func (s Set) LowestPiece() int {
	if s == 0 {
		return 0
	}
	return bits.TrailingZeros32(uint32(s)) + 1
}

// String renders the set as "{1,3,4}" ("{}" when empty), with 1-based piece
// numbers as in the paper.
func (s Set) String() string {
	if s == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for m := uint32(s); m != 0; m &= m - 1 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(bits.TrailingZeros32(m) + 1))
	}
	b.WriteByte('}')
	return b.String()
}

// All enumerates every subset of {1..k} in increasing bitmask order,
// including the empty and full sets. It is used by the exact solver and the
// Lyapunov evaluator; callers must keep k small (2^k values are returned).
func All(k int) []Set {
	if k < 0 {
		k = 0
	}
	if k > MaxK {
		k = MaxK
	}
	n := 1 << uint(k)
	out := make([]Set, n)
	for i := range out {
		out[i] = Set(i)
	}
	return out
}

// AllProper enumerates every proper subset of {1..k} (the type space
// C − {F} of the paper when γ = ∞).
func AllProper(k int) []Set {
	all := All(k)
	return all[:len(all)-1]
}

// Subsets returns all T ⊆ s, in increasing order (2^|s| values). These are
// the types E_C of peers that can still become type s.
func Subsets(s Set) []Set {
	out := make([]Set, 0, 1<<uint(s.Size()))
	sub := Set(0)
	for {
		out = append(out, sub)
		if sub == s {
			break
		}
		sub = (sub - s) & s
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
