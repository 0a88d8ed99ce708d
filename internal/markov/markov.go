// Package markov solves the model's CTMC exactly on a truncated state
// space: it enumerates every state reachable from empty with at most nmax
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
	"math/bits"

	"repro/internal/model"
	"repro/internal/pieceset"
)

// Errors reported by the solver.
var (
	ErrTooLarge   = errors.New("markov: truncated state space exceeds the limit")
	ErrNoConverge = errors.New("markov: iterative solver did not converge")
	ErrBadNMax    = errors.New("markov: NMax must be positive")
	ErrAbsorbing  = errors.New("markov: truncated chain has an absorbing state")
	ErrBadResult  = errors.New("markov: result does not match chain")
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
// States are indexed during the search by their rank (see ranker); a state
// space whose ranks overflow uint64 fails with ErrTooLarge before any state
// is enumerated.
func Build(p model.Params, nmax int) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	if nmax <= 0 {
		return nil, ErrBadNMax
	}
	if nmax >= MaxStates {
		// Arrivals alone reach nmax+1 states, so the search would fail
		// anyway; failing here also bounds the binomial table.
		return nil, fmt.Errorf("%w: nmax %d admits more than %d states", ErrTooLarge, nmax, MaxStates)
	}
	rk, err := newRanker(p, nmax)
	if err != nil {
		return nil, err
	}
	c := &Chain{params: p, nmax: nmax}
	// index maps state ranks to indices during the search only.
	index := make(map[uint64]int32)
	empty := model.NewState(p.K)
	c.states = append(c.states, empty)
	index[rk.rank(empty)] = 0
	gen := p.Generator()
	next := model.NewState(p.K)
	var outTo []int32
	var outQ []float64
	var n int
	var total float64
	visit := func(tr model.Transition) {
		if err != nil || tr.Kind == model.KindArrival && n == nmax {
			return // censored arrival at the boundary
		}
		r := rk.rank(tr.Next)
		idx, ok := index[r]
		if !ok {
			if len(c.states) >= MaxStates {
				err = fmt.Errorf("%w: more than %d states", ErrTooLarge, MaxStates)
				return
			}
			idx = int32(len(c.states))
			c.states = append(c.states, tr.Next.Clone())
			index[r] = idx
		}
		if len(outTo) == math.MaxInt32 {
			err = fmt.Errorf("%w: more than %d transitions", ErrTooLarge, math.MaxInt32)
			return
		}
		outTo = append(outTo, idx)
		outQ = append(outQ, tr.Rate)
		total += tr.Rate
	}
	for head := 0; head < len(c.states); head++ {
		x := c.states[head]
		n, total = x.N(), 0
		c.outStart = append(c.outStart, int32(len(outTo)))
		if werr := gen.Walk(x, next, visit); werr != nil {
			return nil, werr
		}
		if err != nil {
			return nil, err
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

// ranker ranks states in the combinatorial number system (Knuth, TAOCP 4A
// §7.2.1.3) over the chain's support types t_1 < … < t_d: the types that
// contain a positive-rate arrival type, without F when γ = ∞. Peers only
// gain pieces and a γ = ∞ completion departs, so no reachable state holds a
// peer of any other type. With prefix sums s_j = x_{t_1} + … + x_{t_j}, the
// rank Σ_j C(s_j + j − 1, j) maps the states with N ≤ nmax one-to-one onto
// [0, C(nmax + d, d)): the d-subset {s_j + j − 1} of {0, …, nmax + d − 1}
// encodes the vector by stars and bars.
type ranker struct {
	support []int // support type indices, ascending
	// binom[j*stride + s] = C(s + j, j + 1) for j < d and s ≤ nmax+1.
	binom  []uint64
	stride int
}

// newRanker precomputes the binomials of p's support types up to nmax by
// Pascal's rule, failing with ErrTooLarge if C(nmax + d, d) overflows.
func newRanker(p model.Params, nmax int) (*ranker, error) {
	full := pieceset.Full(p.K)
	arrivals := p.ArrivalTypes()
	r := &ranker{stride: nmax + 2}
	for t := pieceset.Set(0); t <= full; t++ {
		if t == full && p.GammaInf() {
			continue
		}
		for _, a := range arrivals {
			if a.SubsetOf(t) {
				r.support = append(r.support, int(t))
				break
			}
		}
	}
	d := len(r.support)
	r.binom = make([]uint64, d*r.stride)
	// Row j holds T_j(s) = C(s + j − 1, j), one-based j: T_1(s) = s and
	// T_j(s) = T_{j−1}(s) + T_j(s−1) with T_j(0) = 0. Every entry is at most
	// T_d(nmax+1) = C(nmax + d, d), the number of ranks.
	for s := 0; s < r.stride; s++ {
		r.binom[s] = uint64(s)
	}
	for j := 1; j < d; j++ {
		row, prev := r.binom[j*r.stride:(j+1)*r.stride], r.binom[(j-1)*r.stride:j*r.stride]
		for s := 1; s < r.stride; s++ {
			var carry uint64
			if row[s], carry = bits.Add64(prev[s], row[s-1], 0); carry != 0 {
				return nil, fmt.Errorf("%w: ranks of %d support types with N ≤ %d overflow uint64", ErrTooLarge, d, nmax)
			}
		}
	}
	return r, nil
}

// rank returns the rank of a state with N ≤ nmax.
func (r *ranker) rank(x model.State) uint64 {
	var rank uint64
	s := 0
	for j, t := range r.support {
		s += x[t]
		rank += r.binom[j*r.stride+s]
	}
	return rank
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
	// BoundaryMass is P{N = nmax}: the truncation error indicator. Results
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

// StationarityResidual returns the sup-norm of πQ over the truncated chain,
// a direct certificate that the solved distribution satisfies global
// balance (up to truncation). Tests require this to be tiny.
func (c *Chain) StationarityResidual(res *StationaryResult) (float64, error) {
	if res == nil || len(res.Pi) != len(c.states) {
		return 0, ErrBadResult
	}
	return c.residual(res.Pi), nil
}
