package fluid

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
)

func params(lambda0, us, mu, gamma float64, k int) model.Params {
	return model.Params{
		K: k, Us: us, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(model.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	s, err := New(params(1, 1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 4 {
		t.Errorf("Dim = %d", s.Dim())
	}
}

func TestFieldDimensionCheck(t *testing.T) {
	s, _ := New(params(1, 1, 1, 2, 2))
	if _, err := s.Field(make([]float64, 3)); !errors.Is(err, ErrBadState) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Integrate(make([]float64, 3), 0.1, 10, 1); !errors.Is(err, ErrBadState) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Integrate(make([]float64, 4), 0, 10, 1); !errors.Is(err, ErrBadStep) {
		t.Errorf("err = %v", err)
	}
}

// TestEmptySystemGrowsAtLambda: from x = 0 the only flow is arrivals, so
// dN/dt = λ_total initially.
func TestEmptySystemGrowsAtLambda(t *testing.T) {
	s, err := New(params(2.5, 1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Field(make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range f {
		total += v
	}
	if math.Abs(total-2.5) > 1e-12 {
		t.Errorf("dN/dt at empty = %v, want 2.5", total)
	}
}

// TestMassBalance: at any positive state with γ < ∞, dN/dt must equal
// λ_total − γ·x_F exactly (uploads conserve peers).
func TestMassBalance(t *testing.T) {
	p := params(1.5, 1, 1, 2, 2)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{3, 2, 1, 4} // x_F = 4
	f, err := s.Field(x)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range f {
		total += v
	}
	want := 1.5 - 2*4.0
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("dN/dt = %v, want %v", total, want)
	}
}

// TestStableSystemBounded: in the stable regime the fluid trajectory
// settles to a bounded equilibrium.
func TestStableSystemBounded(t *testing.T) {
	p := params(0.5, 1, 1, 2, 2) // threshold 2, well inside
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Integrate(make([]float64, 4), 0.01, 30000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	if last.N > 20 {
		t.Errorf("fluid N(%v) = %v, expected bounded", last.T, last.N)
	}
	// Near-equilibrium: the field is small at the end.
	f, err := s.Field(last.X)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, v := range f {
		norm += math.Abs(v)
	}
	if norm > 0.1 {
		t.Errorf("field norm at t=%v is %v, not settled", last.T, norm)
	}
}

// TestTransientOneClubGrows: seeded with a large one-club in the transient
// regime, the fluid population grows steadily.
func TestTransientOneClubGrows(t *testing.T) {
	p := params(8, 1, 1, 2, 2) // threshold 2, λ = 8: transient
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, 4)
	x0[int(pieceset.Full(2).Without(1))] = 500
	pts, err := s.Integrate(x0, 0.01, 5000, 500) // 50 time units
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0], pts[len(pts)-1]
	slope := (last.N - first.N) / (last.T - first.T)
	// ∆_{F−{1}} = λ − (Us + 0)/(1−µ/γ) = 8 − 2 = 6; the fluid slope should
	// be positive and of that order.
	if slope < 2 || slope > 8 {
		t.Errorf("fluid growth slope = %v, want ≈ 6", slope)
	}
}

// TestNoNegativeCoordinates: integration clamps at the boundary.
func TestNoNegativeCoordinates(t *testing.T) {
	p := params(0.1, 5, 1, 5, 2) // strong seed drains fast
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{10, 0, 0, 0}
	pts, err := s.Integrate(x0, 0.05, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		for i, v := range pt.X {
			if v < 0 {
				t.Fatalf("negative coordinate %d = %v at t=%v", i, v, pt.T)
			}
		}
	}
}

// TestGammaInfCompletionsLeave: with γ = ∞ no mass accumulates at F.
func TestGammaInfCompletionsLeave(t *testing.T) {
	p := params(1, 2, 1, math.Inf(1), 2)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Integrate(make([]float64, 4), 0.01, 10000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fullIdx := int(pieceset.Full(2))
	for _, pt := range pts {
		if pt.X[fullIdx] != 0 {
			t.Fatalf("mass at F under γ=∞: %v", pt.X[fullIdx])
		}
	}
}

// settled integrates from x0 for maxTime at step dt and returns the final
// point with the L1 norm of the vector field there.
func settled(t *testing.T, s *System, x0 []float64, dt, maxTime float64) (Point, float64) {
	t.Helper()
	pts, err := s.Integrate(x0, dt, int(maxTime/dt), int(maxTime/dt))
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	f, err := s.Field(last.X)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, v := range f {
		norm += math.Abs(v)
	}
	return last, norm
}

func TestEquilibriumStable(t *testing.T) {
	p := params(0.5, 1, 1, 2, 2)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	end, norm := settled(t, s, make([]float64, 4), 0.01, 2000)
	if norm > 1e-6 {
		t.Errorf("stable system did not settle: field norm = %v", norm)
	}
	if end.N <= 0 || end.N > 20 {
		t.Errorf("equilibrium population = %v", end.N)
	}
}

// TestEquilibriumTransientFromOneClub: started inside the missing-piece
// syndrome, the fluid population of a transient system diverges and no
// equilibrium is reached.
func TestEquilibriumTransientFromOneClub(t *testing.T) {
	p := params(8, 1, 1, 2, 2) // transient regime
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, 4)
	x0[int(pieceset.Full(2).Without(1))] = 500
	end, norm := settled(t, s, x0, 0.02, 100)
	if norm < 1e-6 || end.N <= 500 {
		t.Errorf("one-club fluid settled: N = %v, field norm = %v", end.N, norm)
	}
}

// TestQuasiEquilibriumFromEmpty documents the phenomenon the paper's
// conclusion highlights: the *fluid* path of a stochastically transient
// system, started balanced (empty), settles into a quasi-equilibrium — the
// missing-piece syndrome is fluctuation-driven and invisible to the
// symmetric mean-field dynamics.
func TestQuasiEquilibriumFromEmpty(t *testing.T) {
	p := params(8, 1, 1, 2, 2) // stochastically transient
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	end, norm := settled(t, s, make([]float64, 4), 0.02, 500)
	if norm > 1e-6 {
		t.Fatalf("balanced fluid did not settle: field norm = %v", norm)
	}
	if end.N <= 0 || end.N > 100 {
		t.Errorf("quasi-equilibrium population = %v", end.N)
	}
}
