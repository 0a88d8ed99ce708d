// Package markov solves the model's CTMC exactly on a truncated state
// space: it enumerates every state reachable from empty with at most NMax
// peers, censors arrivals at the truncation boundary, stores the generator
// in compressed sparse rows in both directions, and computes the stationary
// distribution by Gauss–Seidel sweeps on πQ = 0, stopped on the residual
// ‖πQ‖∞. For stable configurations with small K this yields E[N] to solver
// precision, which experiment E10 uses to validate the event-driven
// simulator.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
)

// Errors reported by the solver.
var (
	ErrTooLarge   = errors.New("markov: truncated state space exceeds the limit")
	ErrNoConverge = errors.New("markov: iterative solver did not converge")
	ErrBadNMax    = errors.New("markov: NMax must be positive")
	ErrAbsorbing  = errors.New("markov: truncated chain has an absorbing state")
)

// MaxStates caps the truncated space to keep the solver laptop-friendly.
const MaxStates = 2_000_000

// Chain is a truncated continuous-time Markov chain of the model.
type Chain struct {
	params model.Params
	nmax   int
	states []model.State // index → state (states[0] is empty)
	// The censored generator's off-diagonal entries as compressed sparse
	// rows: out-edges of state i are outTo/outQ[outStart[i]:outStart[i+1]]
	// in transition order, and in-edges of state j are
	// inFrom/inQ[inStart[j]:inStart[j+1]] in ascending source order.
	outStart []int32
	outTo    []int32
	outQ     []float64
	inStart  []int32
	inFrom   []int32
	inQ      []float64
	// outRate[i] is the total out-rate q_i of state i (after censoring).
	outRate []float64
}

// Build enumerates the reachable truncated space via breadth-first search
// from the empty state. Arrival transitions that would push the population
// beyond nmax are censored (dropped), the standard reflecting truncation.
func Build(p model.Params, nmax int) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	if nmax <= 0 {
		return nil, ErrBadNMax
	}
	c := &Chain{params: p, nmax: nmax}
	// index maps state keys to indices during the search only.
	index := make(map[string]int32)
	add := func(x model.State) int32 {
		idx := int32(len(c.states))
		c.states = append(c.states, x)
		index[x.Key()] = idx
		return idx
	}
	add(model.NewState(p.K))
	var outTo []int32
	var outQ []float64
	for head := 0; head < len(c.states); head++ {
		x := c.states[head]
		ts, err := p.Transitions(x)
		if err != nil {
			return nil, err
		}
		if len(outTo) > math.MaxInt32-len(ts) {
			return nil, fmt.Errorf("%w: more than %d transitions", ErrTooLarge, math.MaxInt32)
		}
		c.outStart = append(c.outStart, int32(len(outTo)))
		var total float64
		for _, tr := range ts {
			if tr.Next.N() > nmax {
				continue // censored arrival at the boundary
			}
			idx, ok := index[tr.Next.Key()]
			if !ok {
				if len(c.states) >= MaxStates {
					return nil, fmt.Errorf("%w: more than %d states", ErrTooLarge, MaxStates)
				}
				idx = add(tr.Next)
			}
			outTo = append(outTo, idx)
			outQ = append(outQ, tr.Rate)
			total += tr.Rate
		}
		c.outRate = append(c.outRate, total)
	}
	c.outStart = append(c.outStart, int32(len(outTo)))
	// Exact-length copies: the append slack would otherwise stay live.
	c.outTo = append([]int32(nil), outTo...)
	c.outQ = append([]float64(nil), outQ...)
	c.transpose()
	return c, nil
}

// transpose fills the in-edge rows from the out-edge rows by a counting
// sort on the target, which keeps each in-row in ascending source order.
func (c *Chain) transpose() {
	n := len(c.states)
	c.inStart = make([]int32, n+1)
	for _, j := range c.outTo {
		c.inStart[j+1]++
	}
	for j := 0; j < n; j++ {
		c.inStart[j+1] += c.inStart[j]
	}
	c.inFrom = make([]int32, len(c.outTo))
	c.inQ = make([]float64, len(c.outTo))
	fill := append([]int32(nil), c.inStart[:n]...)
	for i := 0; i < n; i++ {
		for k := c.outStart[i]; k < c.outStart[i+1]; k++ {
			j := c.outTo[k]
			c.inFrom[fill[j]] = int32(i)
			c.inQ[fill[j]] = c.outQ[k]
			fill[j]++
		}
	}
}

// NumStates returns the size of the truncated space.
func (c *Chain) NumStates() int { return len(c.states) }

// NMax returns the truncation level.
func (c *Chain) NMax() int { return c.nmax }

// State returns the state at an index (shared slice; callers must not
// mutate).
func (c *Chain) State(i int) model.State { return c.states[i] }

// StationaryResult carries the solved distribution and derived statistics.
type StationaryResult struct {
	// Pi is the stationary probability of each state index.
	Pi []float64
	// MeanN is E[N] under Pi.
	MeanN float64
	// MeanSeeds is E[x_F] under Pi.
	MeanSeeds float64
	// BoundaryMass is P{N = NMax}: the truncation error indicator. Results
	// are trustworthy only when this is small.
	BoundaryMass float64
	// Residual is the sup-norm of πQ at exit: the solver's error evidence,
	// equal to StationarityResidual of this result.
	Residual float64
	// Iterations is the number of Gauss–Seidel sweeps performed: a second
	// solve with this budget converges too.
	Iterations int
}

// Stationary computes the stationary distribution by Gauss–Seidel sweeps
// on πQ = 0 (Stewart, Introduction to the Numerical Solution of Markov
// Chains, 1994, ch. 3): each sweep sets π_j ← Σ_{i→j} π_i q_ij / q_j in
// place over the in-edges, in state order, then normalizes π. It stops
// after the first sweep whose normalized π has residual ‖πQ‖∞ below tol
// (default 1e-12), and fails with ErrNoConverge after maxIter sweeps
// (default 200000).
func (c *Chain) Stationary(maxIter int, tol float64) (*StationaryResult, error) {
	if maxIter <= 0 {
		maxIter = 200000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for i, q := range c.outRate {
		if q == 0 {
			return nil, fmt.Errorf("%w: %v has no transitions out", ErrAbsorbing, c.states[i])
		}
	}
	n := len(c.states)
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	// iter counts the sweeps performed; it passes maxIter only when none
	// of them converged.
	var iter int
	var resid float64
	for iter = 1; iter <= maxIter; iter++ {
		var sum float64
		for j := range pi {
			pi[j] = c.inflow(pi, j) / c.outRate[j]
			sum += pi[j]
		}
		for j := range pi {
			pi[j] /= sum
		}
		if resid = c.residual(pi); resid < tol {
			break
		}
	}
	if iter > maxIter {
		return nil, fmt.Errorf("%w: stationary distribution after %d iterations (last residual %.3g, tol %.3g)",
			ErrNoConverge, maxIter, resid, tol)
	}
	res := &StationaryResult{Pi: pi, Residual: resid, Iterations: iter}
	fullIdx := len(c.states[0]) - 1
	for i, mass := range pi {
		st := c.states[i]
		nPeers := st.N()
		res.MeanN += mass * float64(nPeers)
		res.MeanSeeds += mass * float64(st[fullIdx])
		if nPeers == c.nmax {
			res.BoundaryMass += mass
		}
	}
	return res, nil
}

// inflow returns Σ_{i→j} π_i q_ij, the probability flux into state j.
func (c *Chain) inflow(pi []float64, j int) float64 {
	lo, hi := c.inStart[j], c.inStart[j+1]
	q := c.inQ[lo:hi]
	var in float64
	for k, i := range c.inFrom[lo:hi] {
		in += pi[i] * q[k]
	}
	return in
}

// residual returns ‖πQ‖∞ = max_j |Σ_{i→j} π_i q_ij − π_j q_j|.
func (c *Chain) residual(pi []float64) float64 {
	var sup float64
	for j, p := range pi {
		if r := math.Abs(c.inflow(pi, j) - p*c.outRate[j]); r > sup {
			sup = r
		}
	}
	return sup
}

// MeanHittingTimeToEmpty computes, for every state, the expected time to
// reach the empty state, by solving the first-passage linear system with
// Gauss–Seidel sweeps. Positive recurrence on the truncated chain makes the
// system well-posed. It returns the vector indexed like States.
func (c *Chain) MeanHittingTimeToEmpty(maxIter int, tol float64) ([]float64, error) {
	if maxIter <= 0 {
		maxIter = 200000
	}
	if tol <= 0 {
		tol = 1e-10
	}
	n := len(c.states)
	h := make([]float64, n)
	var maxDiff float64
	for iter := 0; iter < maxIter; iter++ {
		maxDiff = 0
		for i := 1; i < n; i++ { // state 0 is empty: h = 0
			if c.outRate[i] == 0 {
				continue
			}
			var sum float64
			for k := c.outStart[i]; k < c.outStart[i+1]; k++ {
				if to := c.outTo[k]; to != 0 {
					sum += c.outQ[k] * h[to]
				}
			}
			nv := (1 + sum) / c.outRate[i]
			d := math.Abs(nv - h[i])
			if d > maxDiff*(1+math.Abs(nv)) {
				maxDiff = d / (1 + math.Abs(nv))
			}
			h[i] = nv
		}
		if maxDiff < tol {
			return h, nil
		}
	}
	return nil, fmt.Errorf("%w: hitting times after %d Gauss–Seidel sweeps (last relative step %.3g, tol %.3g)",
		ErrNoConverge, maxIter, maxDiff, tol)
}
