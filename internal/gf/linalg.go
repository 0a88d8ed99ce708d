package gf

import (
	"errors"
	"strconv"
	"strings"
)

// ErrDimMismatch indicates vectors of different lengths in one operation.
var ErrDimMismatch = errors.New("gf: dimension mismatch")

// Vec is a vector over a Field, one int element per coordinate.
type Vec []int

// IsZero reports whether every coordinate is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// ScaleVec returns c·v over f.
func (f *Field) ScaleVec(c int, v Vec) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = f.Mul(c, v[i])
	}
	return out
}

// AddScaled returns u + c·v over f, the row-operation primitive.
func (f *Field) AddScaled(u Vec, c int, v Vec) (Vec, error) {
	if len(u) != len(v) {
		return nil, ErrDimMismatch
	}
	out := make(Vec, len(u))
	for i := range u {
		out[i] = f.Add(u[i], f.Mul(c, v[i]))
	}
	return out, nil
}

// RREF reduces the given rows in place to reduced row echelon form over f
// and returns the rank. Zero rows sink to the bottom. Rows must share a
// common length; the slice header contents are reordered and rewritten.
func (f *Field) RREF(rows []Vec) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	width := len(rows[0])
	for _, r := range rows {
		if len(r) != width {
			return 0, ErrDimMismatch
		}
	}
	rank := 0
	for col := 0; col < width && rank < len(rows); col++ {
		// Find a pivot in this column at or below row `rank`.
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		// Normalize the pivot row.
		inv, err := f.Inv(rows[rank][col])
		if err != nil {
			return 0, err // unreachable: pivot is nonzero
		}
		rows[rank] = f.ScaleVec(inv, rows[rank])
		// Eliminate the column from every other row.
		for r := range rows {
			if r == rank || rows[r][col] == 0 {
				continue
			}
			c := f.Neg(rows[r][col])
			rows[r], err = f.AddScaled(rows[r], c, rows[rank])
			if err != nil {
				return 0, err
			}
		}
		rank++
	}
	return rank, nil
}

// Subspace is a linear subspace of F_q^K held in canonical form: an RREF
// basis. Two Subspace values over the same field represent the same
// subspace if and only if their Keys are equal, which is what lets the coded
// simulator use subspaces as peer-type map keys.
type Subspace struct {
	field *Field
	dim   int
	k     int
	basis []Vec // RREF rows, exactly dim of them
}

// ZeroSubspace returns the trivial subspace {0} ⊆ F_q^k.
func ZeroSubspace(f *Field, k int) *Subspace {
	return &Subspace{field: f, k: k}
}

// FullSubspace returns F_q^k itself.
func FullSubspace(f *Field, k int) *Subspace {
	s := ZeroSubspace(f, k)
	for i := 0; i < k; i++ {
		e := make(Vec, k)
		e[i] = 1
		s = s.mustAdd(e)
	}
	return s
}

// SpanOf builds the subspace spanned by the given vectors.
func SpanOf(f *Field, k int, vecs ...Vec) (*Subspace, error) {
	s := ZeroSubspace(f, k)
	for _, v := range vecs {
		if len(v) != k {
			return nil, ErrDimMismatch
		}
		var err error
		s, err = s.Add(v)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dim returns the dimension of the subspace.
func (s *Subspace) Dim() int { return s.dim }

// Ambient returns k, the dimension of the ambient space F_q^k.
func (s *Subspace) Ambient() int { return s.k }

// IsFull reports whether the subspace is all of F_q^k; a peer of full type
// can decode the file.
func (s *Subspace) IsFull() bool { return s.dim == s.k }

// Key returns a canonical string key identifying the subspace, suitable for
// map keys. Equal subspaces yield equal keys and vice versa.
func (s *Subspace) Key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(s.dim))
	for _, row := range s.basis {
		b.WriteByte('|')
		for i, x := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(x))
		}
	}
	return b.String()
}

// Contains reports whether v ∈ s, by reducing v against the RREF basis.
func (s *Subspace) Contains(v Vec) (bool, error) {
	if len(v) != s.k {
		return false, ErrDimMismatch
	}
	r, err := s.reduce(v)
	if err != nil {
		return false, err
	}
	return r.IsZero(), nil
}

// reduce eliminates v against the basis rows and returns the residual.
func (s *Subspace) reduce(v Vec) (Vec, error) {
	r := v.Clone()
	s.reduceInPlace(r)
	return r, nil
}

// reduceInPlace eliminates r against the basis rows, overwriting r with the
// residual. It performs no allocation: the row operations are applied
// coordinate by coordinate instead of through AddScaled.
func (s *Subspace) reduceInPlace(r Vec) {
	for _, row := range s.basis {
		// Pivot column of an RREF row is its first nonzero entry.
		pc := pivotCol(row)
		if pc < 0 || r[pc] == 0 {
			continue
		}
		c := s.field.Neg(r[pc])
		for i := range r {
			r[i] = s.field.Add(r[i], s.field.Mul(c, row[i]))
		}
	}
}

// ContainsBuf reports whether v ∈ s like Contains, but uses the caller's
// scratch buffer (length k) for the reduction instead of cloning v, so the
// per-event membership tests in the coded simulator stay allocation-free.
// v is not modified; scratch's contents are overwritten.
func (s *Subspace) ContainsBuf(v, scratch Vec) (bool, error) {
	if len(v) != s.k || len(scratch) != s.k {
		return false, ErrDimMismatch
	}
	copy(scratch, v)
	s.reduceInPlace(scratch)
	return scratch.IsZero(), nil
}

// Add returns the subspace s + span{v}. The receiver is not modified; the
// returned subspace shares no mutable state with it.
func (s *Subspace) Add(v Vec) (*Subspace, error) {
	if len(v) != s.k {
		return nil, ErrDimMismatch
	}
	r, err := s.reduce(v)
	if err != nil {
		return nil, err
	}
	if r.IsZero() {
		return s, nil // v already in the span; canonical form unchanged
	}
	rows := make([]Vec, 0, s.dim+1)
	for _, row := range s.basis {
		rows = append(rows, row.Clone())
	}
	rows = append(rows, r)
	rank, err := s.field.RREF(rows)
	if err != nil {
		return nil, err
	}
	return &Subspace{field: s.field, k: s.k, dim: rank, basis: rows[:rank]}, nil
}

func (s *Subspace) mustAdd(v Vec) *Subspace {
	out, err := s.Add(v)
	if err != nil {
		panic(err)
	}
	return out
}

// SubsetOf reports whether s ⊆ t.
func (s *Subspace) SubsetOf(t *Subspace) (bool, error) {
	if s.k != t.k {
		return false, ErrDimMismatch
	}
	if s.dim > t.dim {
		return false, nil
	}
	for _, row := range s.basis {
		in, err := t.Contains(row)
		if err != nil {
			return false, err
		}
		if !in {
			return false, nil
		}
	}
	return true, nil
}

// Sum returns s + t (the join).
func (s *Subspace) Sum(t *Subspace) (*Subspace, error) {
	if s.k != t.k {
		return nil, ErrDimMismatch
	}
	out := s
	for _, row := range t.basis {
		var err error
		out, err = out.Add(row)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// randSource is the minimal random interface the package needs; the rng
// package satisfies it.
type randSource interface {
	Intn(n int) int
}

// RandomVector returns a uniformly random vector of s: a random linear
// combination of the basis with independent uniform coefficients. This is
// exactly what a coded peer transmits when contacted.
//
// Test oracle: the allocating reference that RandomVectorInto must match
// draw for draw.
func (s *Subspace) RandomVector(r randSource) Vec {
	return s.RandomVectorInto(r, make(Vec, s.k))
}

// RandomVectorInto is RandomVector writing into the caller's buffer (which
// must have length k), consuming the identical variate sequence — one
// coefficient per basis row — so swapping it in never changes a
// realization. It returns dst for chaining.
func (s *Subspace) RandomVectorInto(r randSource, dst Vec) Vec {
	if len(dst) != s.k {
		panic(ErrDimMismatch)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, row := range s.basis {
		c := r.Intn(s.field.Order())
		if c == 0 {
			continue
		}
		for i := range dst {
			dst[i] = s.field.Add(dst[i], s.field.Mul(c, row[i]))
		}
	}
	return dst
}

// pivotCol returns the index of the first nonzero entry of an RREF row, or
// -1 for a zero row.
func pivotCol(row Vec) int {
	for i, x := range row {
		if x != 0 {
			return i
		}
	}
	return -1
}

// Hyperplanes enumerates every (k−1)-dimensional subspace of F_q^k as the
// kernels of nonzero linear functionals, one functional per projective
// point (first nonzero coefficient normalized to 1). The count is
// (q^k − 1)/(q − 1). Keep k and q small: the stability calculator only
// needs this for analytic threshold checks.
func Hyperplanes(f *Field, k int) ([]*Subspace, error) {
	if k < 1 {
		return nil, errors.New("gf: hyperplanes need k >= 1")
	}
	q := f.Order()
	var out []*Subspace
	// Enumerate normalized functionals phi: first nonzero coefficient = 1.
	phi := make(Vec, k)
	var rec func(pos int, leadingSet bool) error
	rec = func(pos int, leadingSet bool) error {
		if pos == k {
			if !leadingSet {
				return nil
			}
			h, err := kernelOf(f, phi)
			if err != nil {
				return err
			}
			out = append(out, h)
			return nil
		}
		if !leadingSet {
			// Either stay zero or set this position to 1 as the lead.
			phi[pos] = 0
			if err := rec(pos+1, false); err != nil {
				return err
			}
			phi[pos] = 1
			if err := rec(pos+1, true); err != nil {
				return err
			}
			phi[pos] = 0
			return nil
		}
		for c := 0; c < q; c++ {
			phi[pos] = c
			if err := rec(pos+1, true); err != nil {
				return err
			}
		}
		phi[pos] = 0
		return nil
	}
	if err := rec(0, false); err != nil {
		return nil, err
	}
	return out, nil
}

// kernelOf builds the kernel of a nonzero functional phi over F_q^k.
func kernelOf(f *Field, phi Vec) (*Subspace, error) {
	k := len(phi)
	lead := pivotCol(phi)
	if lead < 0 {
		return nil, errors.New("gf: zero functional has no hyperplane kernel")
	}
	s := ZeroSubspace(f, k)
	// Basis: for each coordinate j != lead, the vector e_j - phi_j/phi_lead * e_lead.
	invLead, err := f.Inv(phi[lead])
	if err != nil {
		return nil, err
	}
	for j := 0; j < k; j++ {
		if j == lead {
			continue
		}
		v := make(Vec, k)
		v[j] = 1
		v[lead] = f.Neg(f.Mul(phi[j], invLead))
		s, err = s.Add(v)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
