// Package gf implements exact arithmetic in small finite fields GF(p^m) and
// the linear algebra over them needed by the network-coding extension of the
// model (Theorem 15): vectors in F_q^K, reduced row echelon form, and
// canonically-represented subspaces, which are the peer types of the coded
// system.
//
// Fields are restricted to small orders (q ≤ MaxOrder); the coded simulator
// only ever needs q up to a few hundred, and the analytic threshold
// calculator works for the paper's q = 64 example symbolically through this
// package as well.
package gf

import (
	"errors"
	"fmt"
)

// MaxOrder is the largest supported field order.
const MaxOrder = 1024

// Errors returned by field construction and operations.
var (
	ErrBadOrder   = errors.New("gf: order must be a prime power in [2, MaxOrder]")
	ErrNotElement = errors.New("gf: value is not a field element")
	ErrDivByZero  = errors.New("gf: division by zero")
)

// Field is a finite field GF(p^m) with q = p^m elements, represented as
// integers 0..q-1. For m > 1 an element's base-p digits are the coefficients
// of its polynomial representation modulo a fixed irreducible polynomial.
// Multiplication uses discrete log/exp tables over a primitive element, so
// all operations are O(1) after construction.
type Field struct {
	q, p, m int
	addTab  []int // q*q addition table
	logTab  []int // log of nonzero elements, base g
	expTab  []int // powers of g, length 2(q-1) to skip a mod
	invTab  []int // multiplicative inverses (invTab[0] unused)
	negTab  []int // additive inverses, so Neg is a table lookup on the hot path
}

// New constructs GF(q). q must be a prime power not exceeding MaxOrder.
func New(q int) (*Field, error) {
	if q < 2 || q > MaxOrder {
		return nil, fmt.Errorf("%w: %d", ErrBadOrder, q)
	}
	p, m, ok := primePower(q)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadOrder, q)
	}
	f := &Field{q: q, p: p, m: m}
	mulTab := f.buildMulTable()
	f.buildAddTable()
	if err := f.buildLogTables(mulTab); err != nil {
		return nil, err
	}
	f.buildNegTable()
	return f, nil
}

// MustNew is New for known-good constant orders; it panics on error.
func MustNew(q int) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// primePower factors q = p^m with p prime, or reports failure.
func primePower(q int) (p, m int, ok bool) {
	for cand := 2; cand*cand <= q; cand++ {
		if q%cand == 0 {
			p = cand
			break
		}
	}
	if p == 0 {
		return q, 1, true // q itself is prime
	}
	m = 0
	for rest := q; rest > 1; rest /= p {
		if rest%p != 0 {
			return 0, 0, false
		}
		m++
	}
	return p, m, true
}

// digits decomposes an element into its m base-p digits.
func (f *Field) digits(a int) []int {
	d := make([]int, f.m)
	for i := 0; i < f.m; i++ {
		d[i] = a % f.p
		a /= f.p
	}
	return d
}

// fromDigits packs base-p digits back into an element.
func (f *Field) fromDigits(d []int) int {
	a := 0
	for i := len(d) - 1; i >= 0; i-- {
		a = a*f.p + d[i]
	}
	return a
}

// buildAddTable fills the digitwise mod-p addition table.
func (f *Field) buildAddTable() {
	f.addTab = make([]int, f.q*f.q)
	for a := 0; a < f.q; a++ {
		da := f.digits(a)
		for b := a; b < f.q; b++ {
			db := f.digits(b)
			dc := make([]int, f.m)
			for i := range dc {
				dc[i] = (da[i] + db[i]) % f.p
			}
			c := f.fromDigits(dc)
			f.addTab[a*f.q+b] = c
			f.addTab[b*f.q+a] = c
		}
	}
}

// buildMulTable computes the full multiplication table by polynomial
// multiplication modulo an irreducible polynomial (found by search for
// m > 1); it is used once to derive the log/exp tables.
func (f *Field) buildMulTable() []int {
	tab := make([]int, f.q*f.q)
	if f.m == 1 {
		for a := 0; a < f.q; a++ {
			for b := 0; b < f.q; b++ {
				tab[a*f.q+b] = a * b % f.p
			}
		}
		return tab
	}
	irr := f.findIrreducible()
	for a := 0; a < f.q; a++ {
		da := f.digits(a)
		for b := a; b < f.q; b++ {
			db := f.digits(b)
			prod := f.polyMulMod(da, db, irr)
			c := f.fromDigits(prod)
			tab[a*f.q+b] = c
			tab[b*f.q+a] = c
		}
	}
	return tab
}

// findIrreducible searches for a monic irreducible polynomial of degree m
// over GF(p), returned as its m+1 coefficients (low to high, last = 1).
// A monic irreducible of every degree exists, so the search always succeeds.
func (f *Field) findIrreducible() []int {
	coeffs := make([]int, f.m+1)
	coeffs[f.m] = 1
	for lower := 0; lower < f.q; lower++ {
		v := lower
		for i := 0; i < f.m; i++ {
			coeffs[i] = v % f.p
			v /= f.p
		}
		if f.polyIrreducible(coeffs) {
			out := make([]int, len(coeffs))
			copy(out, coeffs)
			return out
		}
	}
	panic("gf: no irreducible polynomial found (unreachable)")
}

// polyIrreducible tests a monic polynomial for irreducibility over GF(p) by
// trial division by all monic polynomials of degree 1..deg/2.
func (f *Field) polyIrreducible(poly []int) bool {
	deg := len(poly) - 1
	for d := 1; d <= deg/2; d++ {
		// Enumerate monic divisors of degree d: p^d candidates.
		count := 1
		for i := 0; i < d; i++ {
			count *= f.p
		}
		div := make([]int, d+1)
		div[d] = 1
		for c := 0; c < count; c++ {
			v := c
			for i := 0; i < d; i++ {
				div[i] = v % f.p
				v /= f.p
			}
			if f.polyDivides(div, poly) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether monic divisor div divides poly over GF(p).
func (f *Field) polyDivides(div, poly []int) bool {
	rem := make([]int, len(poly))
	copy(rem, poly)
	dd := len(div) - 1
	for i := len(rem) - 1; i >= dd; i-- {
		c := rem[i]
		if c == 0 {
			continue
		}
		for j := 0; j <= dd; j++ {
			rem[i-dd+j] = ((rem[i-dd+j]-c*div[j])%f.p + f.p*f.p) % f.p
		}
	}
	for i := 0; i < dd; i++ {
		if rem[i] != 0 {
			return false
		}
	}
	return true
}

// polyMulMod multiplies two degree-<m polynomials and reduces modulo the
// monic irreducible irr of degree m.
func (f *Field) polyMulMod(a, b, irr []int) []int {
	prod := make([]int, 2*f.m-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			prod[i+j] = (prod[i+j] + ai*bj) % f.p
		}
	}
	for i := len(prod) - 1; i >= f.m; i-- {
		c := prod[i]
		if c == 0 {
			continue
		}
		for j := 0; j <= f.m; j++ {
			prod[i-f.m+j] = ((prod[i-f.m+j]-c*irr[j])%f.p + f.p*f.p) % f.p
		}
	}
	return prod[:f.m]
}

// buildLogTables locates a primitive element and fills log/exp/inv tables.
func (f *Field) buildLogTables(mulTab []int) error {
	order := f.q - 1
	for g := 1; g < f.q; g++ {
		if f.elementOrder(g, mulTab) == order {
			f.expTab = make([]int, 2*order)
			f.logTab = make([]int, f.q)
			x := 1
			for i := 0; i < order; i++ {
				f.expTab[i] = x
				f.expTab[i+order] = x
				f.logTab[x] = i
				x = mulTab[x*f.q+g]
			}
			f.invTab = make([]int, f.q)
			for a := 1; a < f.q; a++ {
				f.invTab[a] = f.expTab[order-f.logTab[a]]
			}
			return nil
		}
	}
	return fmt.Errorf("gf: no primitive element in GF(%d)", f.q)
}

// elementOrder returns the multiplicative order of a nonzero element.
func (f *Field) elementOrder(g int, mulTab []int) int {
	x := g
	for ord := 1; ; ord++ {
		if x == 1 {
			return ord
		}
		x = mulTab[x*f.q+g]
		if ord > f.q {
			return -1 // zero divisor; cannot happen in a field
		}
	}
}

// Order returns q, the number of field elements.
func (f *Field) Order() int { return f.q }

// valid reports whether a is a representable element.
func (f *Field) valid(a int) bool { return a >= 0 && a < f.q }

// Add returns a + b. Inputs outside the field panic: arithmetic call sites
// are internal and pre-validated.
func (f *Field) Add(a, b int) int {
	if !f.valid(a) || !f.valid(b) {
		panic(ErrNotElement)
	}
	return f.addTab[a*f.q+b]
}

// Neg returns −a.
func (f *Field) Neg(a int) int {
	if !f.valid(a) {
		panic(ErrNotElement)
	}
	return f.negTab[a]
}

// buildNegTable precomputes additive inverses (digitwise mod-p negation),
// keeping Neg allocation-free on the subspace-reduction hot path.
func (f *Field) buildNegTable() {
	f.negTab = make([]int, f.q)
	for a := 0; a < f.q; a++ {
		d := f.digits(a)
		for i := range d {
			d[i] = (f.p - d[i]) % f.p
		}
		f.negTab[a] = f.fromDigits(d)
	}
}

// Sub returns a − b.
func (f *Field) Sub(a, b int) int { return f.Add(a, f.Neg(b)) }

// Mul returns a · b.
func (f *Field) Mul(a, b int) int {
	if !f.valid(a) || !f.valid(b) {
		panic(ErrNotElement)
	}
	if a == 0 || b == 0 {
		return 0
	}
	return f.expTab[f.logTab[a]+f.logTab[b]]
}

// Inv returns a⁻¹, or ErrDivByZero when a = 0.
func (f *Field) Inv(a int) (int, error) {
	if !f.valid(a) {
		panic(ErrNotElement)
	}
	if a == 0 {
		return 0, ErrDivByZero
	}
	return f.invTab[a], nil
}

// Pow returns a^e for e ≥ 0 (0^0 = 1).
func (f *Field) Pow(a, e int) int {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (f.logTab[a] * e) % (f.q - 1)
	return f.expTab[le]
}
