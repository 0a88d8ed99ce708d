package markov

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/racegate"
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

// TestStationaryIterationsIsABudget pins the reported sweep count: it is
// the number of sweeps performed, so re-solving with exactly that budget
// converges, and one sweep fewer does not.
func TestStationaryIterationsIsABudget(t *testing.T) {
	c, err := Build(k1Params(0.8, 1, 1, 2), 40)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-10
	res, err := c.Stationary(0, tol)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Stationary(res.Iterations, tol)
	if err != nil {
		t.Fatalf("Stationary(%d, %g) with the reported budget: %v", res.Iterations, tol, err)
	}
	if again.Iterations != res.Iterations {
		t.Errorf("re-solve used %d sweeps, want %d", again.Iterations, res.Iterations)
	}
	if _, err := c.Stationary(res.Iterations-1, tol); !errors.Is(err, ErrNoConverge) {
		t.Errorf("Stationary(%d, %g) = %v, want ErrNoConverge", res.Iterations-1, tol, err)
	}
}

// TestStationaryNearThresholdE10 pins E10's K=1 λ0=1.2 chain at default
// limits to its E[N] from a solve to residual 1e-16. Stopping on step size
// instead of the residual left it wrong in the fifth digit.
func TestStationaryNearThresholdE10(t *testing.T) {
	c, err := Build(k1Params(1.2, 1, 1, 2), 70)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const want = 6.69764533348
	if rel := math.Abs(res.MeanN-want) / want; rel > 1e-8 {
		t.Errorf("E[N] = %.12g, want %.12g (rel %.3g)", res.MeanN, want, rel)
	}
}

// gth solves πQ = 0 by Grassmann–Taksar–Heyman elimination on a dense copy
// of the generator's off-diagonal rates: subtraction-free, so exact to
// rounding, and O(n³), so only for small chains.
func gth(c *Chain) []float64 {
	n := c.NumStates()
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for k := c.outStart[i]; k < c.outStart[i+1]; k++ {
			a[i][c.outTo[k]] += c.outQ[k]
		}
	}
	for k := n - 1; k > 0; k-- {
		var s float64
		for j := 0; j < k; j++ {
			s += a[k][j]
		}
		for i := 0; i < k; i++ {
			a[i][k] /= s
			for j := 0; j < k; j++ {
				a[i][j] += a[i][k] * a[k][j]
			}
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	sum := 1.0
	for k := 1; k < n; k++ {
		for i := 0; i < k; i++ {
			pi[k] += pi[i] * a[i][k]
		}
		sum += pi[k]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

// TestStationaryMatchesGTH checks the Gauss–Seidel solve at default limits
// against exact elimination on a K=1 and a K=2 chain.
func TestStationaryMatchesGTH(t *testing.T) {
	k2 := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.4, pieceset.MustOf(1): 0.2},
	}
	for _, tc := range []struct {
		name string
		p    model.Params
		nmax int
	}{
		{"K=1", k1Params(0.8, 1, 1, 2), 20},
		{"K=2", k2, 8},
	} {
		c, err := Build(tc.p, tc.nmax)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Stationary(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := gth(c)
		var meanN, maxDiff float64
		for i, p := range want {
			meanN += p * float64(c.State(i).N())
			maxDiff = math.Max(maxDiff, math.Abs(res.Pi[i]-p))
		}
		if maxDiff > 1e-10 {
			t.Errorf("%s: max |π_GS − π_GTH| = %.3g", tc.name, maxDiff)
		}
		if rel := math.Abs(res.MeanN-meanN) / meanN; rel > 1e-10 {
			t.Errorf("%s: E[N] = %.12g, GTH %.12g (rel %.3g)", tc.name, res.MeanN, meanN, rel)
		}
	}
}

// TestStationaryAbsorbing: with no seed upload and only empty arrivals,
// the full truncated population can never leave; the solver says so
// instead of dividing by a zero out-rate.
func TestStationaryAbsorbing(t *testing.T) {
	c, err := Build(k1Params(0.5, 0, 1, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stationary(0, 0); !errors.Is(err, ErrAbsorbing) {
		t.Errorf("err = %v, want ErrAbsorbing", err)
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

// TestNoConvergeWrapped: the solver reports a too-small iteration budget
// as ErrNoConverge, wrapped with the budget spent.
func TestNoConvergeWrapped(t *testing.T) {
	c, err := Build(k1Params(0.5, 1, 1, 2), 25)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Stationary(1, 0)
	if !errors.Is(err, ErrNoConverge) {
		t.Fatalf("err = %v, want ErrNoConverge", err)
	}
	if !strings.Contains(err.Error(), "after 1 ") {
		t.Errorf("err = %q, want the iteration count", err)
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

// TestBuildTooLarge: a state space whose ranks overflow uint64 fails with
// ErrTooLarge when the binomials are precomputed, before any state is
// enumerated (C(10016, 16) ≈ 5e50 ranks; the search would run out of memory
// long before MaxStates).
func TestBuildTooLarge(t *testing.T) {
	p := model.Params{
		K: 4, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	c, err := Build(p, 10_000)
	if !errors.Is(err, ErrTooLarge) || c != nil {
		t.Fatalf("Build = %v, %v; want ErrTooLarge", c, err)
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("err = %q, want the rank overflow", err)
	}
	if _, err := Build(k1Params(1, 1, 1, 2), MaxStates); !errors.Is(err, ErrTooLarge) {
		t.Errorf("nmax = MaxStates: err = %v, want ErrTooLarge", err)
	}
}

// TestBuildAllocs pins Build's allocation-free transition walk: E10's K=2
// chain at nmax 30 costs at most 2 allocations per state (the stored state
// plus amortised map and slice growth), against 38 when every transition
// cloned its next state and every state re-sorted the arrival types.
func TestBuildAllocs(t *testing.T) {
	if racegate.Enabled {
		t.Skip("race instrumentation allocates")
	}
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.4, pieceset.MustOf(1): 0.2},
	}
	var states int
	allocs := testing.AllocsPerRun(3, func() {
		c, err := Build(p, 30)
		if err != nil {
			t.Fatal(err)
		}
		states = c.NumStates()
	})
	perState := allocs / float64(states)
	t.Logf("Build: %.0f allocs for %d states = %.2f per state", allocs, states, perState)
	if perState > 2 {
		t.Errorf("Build: %.0f allocs for %d states = %.2f per state, want <= 2", allocs, states, perState)
	}
}

// TestRankerBijection: the rank maps the states over the support types with
// N ≤ nmax one-to-one onto [0, C(nmax + d, d)).
func TestRankerBijection(t *testing.T) {
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.MustOf(1): 1},
	}
	const nmax = 6
	r, err := newRanker(p, nmax)
	if err != nil {
		t.Fatal(err)
	}
	// The supersets of {1}: {1}, {1,2}, {1,3} and F.
	if fmt.Sprint(r.support) != "[1 3 5 7]" {
		t.Fatalf("support = %v, want [1 3 5 7]", r.support)
	}
	const ranks = 210 // C(nmax + 4, 4)
	seen := make([]bool, ranks)
	x := model.NewState(3)
	var fill func(j, left int)
	fill = func(j, left int) {
		if j == len(r.support) {
			k := r.rank(x)
			if k >= ranks || seen[k] {
				t.Fatalf("rank(%v) = %d: out of range or repeated", x, k)
			}
			seen[k] = true
			return
		}
		for v := 0; v <= left; v++ {
			x[r.support[j]] = v
			fill(j+1, left-v)
		}
		x[r.support[j]] = 0
	}
	fill(0, nmax)
	for k, ok := range seen {
		if !ok {
			t.Fatalf("rank %d unused", k)
		}
	}
}
