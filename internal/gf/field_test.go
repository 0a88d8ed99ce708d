package gf

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewValidOrders(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64, 81, 128, 256} {
		f, err := New(q)
		if err != nil {
			t.Errorf("New(%d): %v", q, err)
			continue
		}
		if f.Order() != q {
			t.Errorf("Order = %d, want %d", f.Order(), q)
		}
	}
}

func TestNewRejectsBadOrders(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 100, MaxOrder + 1, -4} {
		if _, err := New(q); !errors.Is(err, ErrBadOrder) {
			t.Errorf("New(%d) err = %v, want ErrBadOrder", q, err)
		}
	}
}

func TestPrimePowerDecomposition(t *testing.T) {
	tests := []struct {
		q, p, m int
	}{
		{7, 7, 1}, {8, 2, 3}, {9, 3, 2}, {25, 5, 2}, {64, 2, 6}, {81, 3, 4},
	}
	for _, tt := range tests {
		f := MustNew(tt.q)
		if f.p != tt.p || f.m != tt.m {
			t.Errorf("GF(%d): p=%d m=%d, want p=%d m=%d",
				tt.q, f.p, f.m, tt.p, tt.m)
		}
	}
}

// checkFieldAxioms exhaustively verifies the field axioms on small orders.
func checkFieldAxioms(t *testing.T, q int) {
	t.Helper()
	f := MustNew(q)
	for a := 0; a < q; a++ {
		// Identities.
		if f.Add(a, 0) != a || f.Mul(a, 1) != a || f.Mul(a, 0) != 0 {
			t.Fatalf("GF(%d): identity failure at %d", q, a)
		}
		if f.Add(a, f.Neg(a)) != 0 {
			t.Fatalf("GF(%d): a + (-a) != 0 at %d", q, a)
		}
		if a != 0 {
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("GF(%d): Inv(%d): %v", q, a, err)
			}
			if f.Mul(a, inv) != 1 {
				t.Fatalf("GF(%d): a * a^-1 != 1 at %d", q, a)
			}
		}
		for b := 0; b < q; b++ {
			if f.Add(a, b) != f.Add(b, a) || f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("GF(%d): commutativity failure at %d,%d", q, a, b)
			}
			if a != 0 && b != 0 && f.Mul(a, b) == 0 {
				t.Fatalf("GF(%d): zero divisor %d*%d", q, a, b)
			}
			for c := 0; c < q; c++ {
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("GF(%d): distributivity failure at %d,%d,%d", q, a, b, c)
				}
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("GF(%d): add associativity failure", q)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("GF(%d): mul associativity failure", q)
				}
			}
		}
	}
}

func TestFieldAxiomsExhaustive(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 8, 9} {
		checkFieldAxioms(t, q)
	}
}

func TestFieldAxiomsSpotCheckLarger(t *testing.T) {
	// Full cubic check is too slow for q=64; verify inverses and a sample of
	// distributivity triples instead.
	f := MustNew(64)
	for a := 1; a < 64; a++ {
		inv, err := f.Inv(a)
		if err != nil || f.Mul(a, inv) != 1 {
			t.Fatalf("GF(64) inverse failure at %d", a)
		}
	}
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			for c := 0; c < 64; c += 3 {
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("GF(64) distributivity failure at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestSubDiv(t *testing.T) {
	f := MustNew(9)
	for a := 0; a < 9; a++ {
		for b := 0; b < 9; b++ {
			if f.Add(f.Sub(a, b), b) != a {
				t.Fatalf("Sub inconsistent at %d,%d", a, b)
			}
			if b != 0 {
				bi, err := f.Inv(b)
				if err != nil {
					t.Fatal(err)
				}
				if f.Mul(f.Mul(a, bi), b) != a {
					t.Fatalf("division inconsistent at %d,%d", a, b)
				}
			}
		}
	}
	if _, err := f.Inv(0); !errors.Is(err, ErrDivByZero) {
		t.Errorf("Inv(0) err = %v", err)
	}
}

func TestPow(t *testing.T) {
	f := MustNew(8)
	for a := 0; a < 8; a++ {
		want := 1
		for e := 0; e < 10; e++ {
			if got := f.Pow(a, e); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
			}
			want = f.Mul(want, a)
		}
	}
	// Fermat: a^(q-1) = 1 for nonzero a.
	for a := 1; a < 8; a++ {
		if f.Pow(a, 7) != 1 {
			t.Errorf("a^(q-1) != 1 at %d", a)
		}
	}
}

func TestArithmeticPanicsOutsideField(t *testing.T) {
	f := MustNew(4)
	defer func() {
		if recover() == nil {
			t.Error("Add with out-of-range element did not panic")
		}
	}()
	f.Add(4, 0)
}

// Property: in GF(p), arithmetic agrees with integer arithmetic mod p.
func TestQuickPrimeFieldMatchesModular(t *testing.T) {
	f := MustNew(31)
	fn := func(a, b uint8) bool {
		x, y := int(a)%31, int(b)%31
		return f.Add(x, y) == (x+y)%31 && f.Mul(x, y) == (x*y)%31
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
