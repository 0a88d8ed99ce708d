package markov

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/sim"
)

func k1Params(lambda0, us, mu, gamma float64) model.Params {
	return model.Params{
		K: 1, Us: us, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(model.Params{}, 5); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Build(k1Params(1, 1, 1, 2), 0); !errors.Is(err, ErrBadNMax) {
		t.Error("NMax = 0 accepted")
	}
}

func TestBuildStateCountK1(t *testing.T) {
	// K = 1 states: (x_∅, x_F) with sum ≤ N → (N+1)(N+2)/2 states.
	c, err := Build(k1Params(1, 1, 1, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumStates(), 15; got != want {
		t.Errorf("NumStates = %d, want %d", got, want)
	}
	if c.NMax() != 4 {
		t.Errorf("NMax = %d", c.NMax())
	}
	// Empty state must be index 0.
	if c.State(0).N() != 0 {
		t.Error("state 0 is not empty")
	}
}

// TestStationaryMM1Analogy: with K = 1 and µ so small that peer uploads are
// negligible... instead use an exactly solvable case: λ0 arrivals, seed
// upload U_s, γ huge so seeds vanish instantly — approximately an M/M/1
// queue with arrival λ0 and service U_s (single seed server), for which
// E[N] = ρ/(1−ρ). Verified within the approximation tolerance.
func TestStationaryMM1Analogy(t *testing.T) {
	const lambda0, us = 0.3, 1.0
	// µ tiny: peers almost never upload; γ large: completed peers leave
	// quickly (without blowing up the uniformization constant).
	p := k1Params(lambda0, us, 1e-4, 20)
	c, err := Build(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda0 / us
	want := rho / (1 - rho)
	if math.Abs(res.MeanN-want) > 0.08*want+0.02 {
		t.Errorf("E[N] = %v, want ≈ %v (M/M/1)", res.MeanN, want)
	}
	if res.BoundaryMass > 1e-6 {
		t.Errorf("boundary mass %v too large", res.BoundaryMass)
	}
}

func TestStationaryProbabilitiesSumToOne(t *testing.T) {
	c, err := Build(k1Params(0.5, 1, 1, 2), 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Pi {
		if v < -1e-15 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if res.Iterations <= 0 {
		t.Error("no iterations recorded")
	}
}

// TestStationaryMatchesSimulatorK1 cross-validates the two independent
// implementations of the same chain: exact solve vs long simulation.
func TestStationaryMatchesSimulatorK1(t *testing.T) {
	p := k1Params(0.8, 1, 1, 2) // stable: threshold 2
	c, err := Build(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundaryMass > 1e-6 {
		t.Fatalf("truncation too tight: boundary mass %v", res.BoundaryMass)
	}

	s, err := sim.New(p, sim.WithSeed(1234))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntil(500, 0); err != nil { // burn-in
		t.Fatal(err)
	}
	s.ResetOccupancy()
	if _, err := s.RunUntil(20500, 0); err != nil {
		t.Fatal(err)
	}
	simMean := s.MeanPeers()
	if math.Abs(simMean-res.MeanN) > 0.12*res.MeanN+0.05 {
		t.Errorf("simulator E[N] = %v vs exact %v", simMean, res.MeanN)
	}
}

// TestStationaryMatchesSimulatorK2 repeats the cross-validation with two
// pieces and mixed arrival types.
func TestStationaryMatchesSimulatorK2(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.Empty:     0.4,
			pieceset.MustOf(1): 0.2,
		},
	}
	c, err := Build(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundaryMass > 1e-5 {
		t.Fatalf("boundary mass %v too large", res.BoundaryMass)
	}
	s, err := sim.New(p, sim.WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntil(500, 0); err != nil {
		t.Fatal(err)
	}
	s.ResetOccupancy()
	if _, err := s.RunUntil(15500, 0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanPeers()-res.MeanN) > 0.15*res.MeanN+0.05 {
		t.Errorf("simulator E[N] = %v vs exact %v", s.MeanPeers(), res.MeanN)
	}
}

func TestMeanHittingTime(t *testing.T) {
	p := k1Params(0.5, 1, 1, 2)
	c, err := Build(p, 25)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.MeanHittingTimeToEmpty(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 0 {
		t.Error("hitting time from empty must be 0")
	}
	// Hitting times grow with the starting population.
	idxSmall, idxLarge := -1, -1
	for i := 0; i < c.NumStates(); i++ {
		st := c.State(i)
		if st.N() == 1 && idxSmall < 0 {
			idxSmall = i
		}
		if st.N() == c.NMax() {
			idxLarge = i
		}
	}
	if idxSmall < 0 || idxLarge < 0 {
		t.Fatal("missing reference states")
	}
	if !(h[idxSmall] > 0) || !(h[idxLarge] > h[idxSmall]) {
		t.Errorf("hitting times not ordered: h1=%v hmax=%v", h[idxSmall], h[idxLarge])
	}
}

// TestNoConvergeWrapped: both iterative solvers report a too-small
// iteration budget as ErrNoConverge, wrapped with the budget spent.
func TestNoConvergeWrapped(t *testing.T) {
	c, err := Build(k1Params(0.5, 1, 1, 2), 25)
	if err != nil {
		t.Fatal(err)
	}
	_, errPi := c.Stationary(1, 0)
	_, errH := c.MeanHittingTimeToEmpty(1, 0)
	for _, err := range []error{errPi, errH} {
		if !errors.Is(err, ErrNoConverge) {
			t.Fatalf("err = %v, want ErrNoConverge", err)
		}
		if !strings.Contains(err.Error(), "after 1 ") {
			t.Errorf("err = %q, want the iteration count", err)
		}
	}
}

func TestGammaInfChain(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.5},
	}
	c, err := Build(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	// No state may hold peer seeds.
	fullIdx := 1<<2 - 1
	for i := 0; i < c.NumStates(); i++ {
		if c.State(i)[fullIdx] != 0 {
			t.Fatal("γ=∞ chain contains a peer-seed state")
		}
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanSeeds != 0 {
		t.Errorf("MeanSeeds = %v, want 0", res.MeanSeeds)
	}
	if res.MeanN <= 0 {
		t.Errorf("MeanN = %v", res.MeanN)
	}
}
