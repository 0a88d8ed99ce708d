package pieceset

import (
	"errors"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestFull(t *testing.T) {
	tests := []struct {
		k    int
		want Set
	}{
		{0, 0},
		{-3, 0},
		{1, 0b1},
		{2, 0b11},
		{4, 0b1111},
		{MaxK, Set(1<<MaxK - 1)},
	}
	for _, tt := range tests {
		if got := Full(tt.k); got != tt.want {
			t.Errorf("Full(%d) = %b, want %b", tt.k, got, tt.want)
		}
	}
}

func TestOfAndHas(t *testing.T) {
	s, err := Of(1, 3, 4)
	if err != nil {
		t.Fatalf("Of: %v", err)
	}
	for p := 1; p <= 5; p++ {
		want := p == 1 || p == 3 || p == 4
		if s.Has(p) != want {
			t.Errorf("Has(%d) = %v, want %v", p, s.Has(p), want)
		}
	}
	if s.Has(0) || s.Has(31) {
		t.Error("Has must be false outside 1..MaxK")
	}
}

func TestOfRejectsOutOfRange(t *testing.T) {
	for _, p := range []int{0, -1, MaxK + 1} {
		if _, err := Of(p); !errors.Is(err, ErrPieceRange) {
			t.Errorf("Of(%d) err = %v, want ErrPieceRange", p, err)
		}
	}
}

func TestMustOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOf(0) did not panic")
		}
	}()
	MustOf(0)
}

func TestWithWithout(t *testing.T) {
	s := MustOf(2)
	s = s.With(5)
	if !s.Has(5) || !s.Has(2) || s.Size() != 2 {
		t.Fatalf("With: got %v", s)
	}
	s = s.Without(2)
	if s.Has(2) || !s.Has(5) || s.Size() != 1 {
		t.Fatalf("Without: got %v", s)
	}
	// Out-of-range p is a no-op.
	if s.With(0) != s || s.Without(99) != s {
		t.Error("out-of-range With/Without must be no-ops")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := MustOf(1, 2, 3)
	b := MustOf(3, 4)
	if got := a.Minus(b); got != MustOf(1, 2) {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Complement(5); got != MustOf(1, 2, 5) {
		t.Errorf("Complement = %v", got)
	}
}

func TestSubsetPredicates(t *testing.T) {
	a := MustOf(1, 2)
	b := MustOf(1, 2, 3)
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a unexpected")
	}
	if !a.SubsetOf(a) {
		t.Error("reflexivity: a ⊆ a")
	}
}

func TestPiecesAndNthPiece(t *testing.T) {
	s := MustOf(2, 5, 9)
	got := piecesOf(s)
	want := []int{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Pieces = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pieces = %v, want %v", got, want)
		}
		if s.NthPiece(i) != want[i] {
			t.Errorf("NthPiece(%d) = %d, want %d", i, s.NthPiece(i), want[i])
		}
	}
	if s.NthPiece(-1) != 0 || s.NthPiece(3) != 0 {
		t.Error("NthPiece out of range must return 0")
	}
	if s.LowestPiece() != 2 {
		t.Errorf("LowestPiece = %d", s.LowestPiece())
	}
	if Empty.LowestPiece() != 0 {
		t.Error("LowestPiece of empty must be 0")
	}
}

func TestString(t *testing.T) {
	if got := Empty.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	if got := MustOf(1, 3, 4).String(); got != "{1,3,4}" {
		t.Errorf("String = %q", got)
	}
}

func TestAllEnumerations(t *testing.T) {
	all := All(3)
	if len(all) != 8 {
		t.Fatalf("All(3) len = %d", len(all))
	}
	for i, s := range all {
		if int(s) != i {
			t.Fatalf("All(3)[%d] = %d", i, s)
		}
	}
	proper := AllProper(3)
	if len(proper) != 7 || proper[len(proper)-1] == Full(3) {
		t.Errorf("AllProper(3) = %v", proper)
	}
	if got := All(-1); len(got) != 1 || got[0] != Empty {
		t.Errorf("All(-1) = %v", got)
	}
}

func TestSupersetsSubsets(t *testing.T) {
	sub := Subsets(MustOf(1, 3))
	if len(sub) != 4 {
		t.Fatalf("Subsets len = %d", len(sub))
	}
	for _, u := range sub {
		if !u.SubsetOf(MustOf(1, 3)) {
			t.Errorf("subset %v not contained", u)
		}
	}
}

// Property: Size agrees with popcount, and Minus satisfies the usual
// identities against ∪ and ∩, for arbitrary masks.
func TestQuickSetIdentities(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Set(a), Set(b)
		if x.Size() != bits.OnesCount32(a) {
			return false
		}
		if x.Minus(y)&y != Empty {
			return false
		}
		if x.Minus(y)|(x&y) != x {
			return false
		}
		return x.Minus(y).Size() == x.Size()-(x&y).Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// piecesOf is the reference enumeration the iterators are checked against:
// a plain scan of Has over 1..MaxK.
func piecesOf(s Set) []int {
	var out []int
	for p := 1; p <= MaxK; p++ {
		if s.Has(p) {
			out = append(out, p)
		}
	}
	return out
}

// Property: NthPiece(i) enumerates the pieces in order.
func TestQuickNthPiece(t *testing.T) {
	f := func(raw uint32) bool {
		s := Set(raw) & Full(MaxK)
		ps := piecesOf(s)
		for i, p := range ps {
			if s.NthPiece(i) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ForEach visits exactly the pieces, in order.
func TestQuickForEachMatchesPieces(t *testing.T) {
	f := func(raw uint32) bool {
		s := Set(raw) & Full(MaxK)
		want := piecesOf(s)
		var got []int
		s.ForEach(func(p int) { got = append(got, p) })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The per-event iterator must never touch the heap: ForEach with a
// capturing closure is allocation-free.
func TestIteratorAllocFree(t *testing.T) {
	s := MustOf(1, 4, 7, 19, 30)
	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		s.ForEach(func(p int) { sum += p })
	}); n != 0 {
		t.Errorf("ForEach allocates %.1f allocs/op, want 0", n)
	}
	_ = sum
}
