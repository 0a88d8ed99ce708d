// Package markov solves the model's CTMC exactly on a truncated state
// space: it enumerates every state reachable from empty with at most NMax
// peers, censors arrivals at the truncation boundary, and computes the
// stationary distribution by uniformized power iteration. For stable
// configurations with small K this yields E[N] to solver precision, which
// experiment E10 uses to validate the event-driven simulator.
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
)

// MaxStates caps the truncated space to keep the solver laptop-friendly.
const MaxStates = 2_000_000

// Chain is a truncated continuous-time Markov chain of the model.
type Chain struct {
	params model.Params
	nmax   int
	states []model.State  // index → state (states[0] is empty)
	index  map[string]int // state key → index
	// outs[i] lists censored transitions out of state i.
	outs [][]edge
	// outRate[i] is the total out-rate of state i (after censoring).
	outRate []float64
}

type edge struct {
	to   int
	rate float64
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
	c := &Chain{
		params: p,
		nmax:   nmax,
		index:  make(map[string]int),
	}
	empty := model.NewState(p.K)
	c.addState(empty)
	for head := 0; head < len(c.states); head++ {
		x := c.states[head]
		ts, err := p.Transitions(x)
		if err != nil {
			return nil, err
		}
		var edges []edge
		var total float64
		for _, tr := range ts {
			if tr.Next.N() > nmax {
				continue // censored arrival at the boundary
			}
			idx, ok := c.index[tr.Next.Key()]
			if !ok {
				if len(c.states) >= MaxStates {
					return nil, fmt.Errorf("%w: more than %d states", ErrTooLarge, MaxStates)
				}
				idx = c.addState(tr.Next)
			}
			edges = append(edges, edge{to: idx, rate: tr.Rate})
			total += tr.Rate
		}
		c.outs = append(c.outs, edges)
		c.outRate = append(c.outRate, total)
	}
	return c, nil
}

func (c *Chain) addState(x model.State) int {
	idx := len(c.states)
	c.states = append(c.states, x)
	c.index[x.Key()] = idx
	return idx
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
	// Iterations is the number of power-method sweeps performed: a second
	// solve with this budget converges too.
	Iterations int
}

// Stationary computes the stationary distribution by power iteration on the
// uniformized transition matrix P = I + Q/Λ.
func (c *Chain) Stationary(maxIter int, tol float64) (*StationaryResult, error) {
	if maxIter <= 0 {
		maxIter = 200000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := len(c.states)
	// Uniformization constant: strictly above the max out-rate.
	var uni float64
	for _, r := range c.outRate {
		if r > uni {
			uni = r
		}
	}
	uni *= 1.05
	if uni == 0 {
		return nil, errors.New("markov: degenerate chain with no transitions")
	}
	pi := make([]float64, n)
	pi[0] = 1
	next := make([]float64, n)
	// iter counts the sweeps performed; it passes maxIter only when none
	// of them converged.
	var iter int
	var diff float64
	for iter = 1; iter <= maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for i, mass := range pi {
			if mass == 0 {
				continue
			}
			stay := 1 - c.outRate[i]/uni
			next[i] += mass * stay
			for _, e := range c.outs[i] {
				next[e.to] += mass * e.rate / uni
			}
		}
		// Normalize against drift and measure the sup-norm change.
		var sum float64
		diff = 0
		for i := range next {
			sum += next[i]
		}
		for i := range next {
			next[i] /= sum
			d := math.Abs(next[i] - pi[i])
			if d > diff {
				diff = d
			}
		}
		pi, next = next, pi
		if diff < tol {
			break
		}
	}
	if iter > maxIter {
		return nil, fmt.Errorf("%w: stationary distribution after %d iterations (last step %.3g, tol %.3g)",
			ErrNoConverge, maxIter, diff, tol)
	}
	res := &StationaryResult{Pi: pi, Iterations: iter}
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
			for _, e := range c.outs[i] {
				if e.to != 0 {
					sum += e.rate * h[e.to]
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
