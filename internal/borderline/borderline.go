// Package borderline implements the µ = ∞ embedded process of Section
// VIII-D (Figure 3): the model watched on "slow" states, where all peers
// share one type, in the symmetric single-piece-arrival network with
// U_s = 0 and γ = ∞. The top layer (n, K−1) evolves as a zero-drift random
// walk (E[Z] = K−1), which is the paper's evidence for null recurrence on
// the stability borderline; this package simulates the chain and exposes
// the diagnostics experiment E8 reports. The chain runs on the shared CTMC
// event kernel as a single-class process (every embedded transition is one
// arrival at total rate K·λ).
package borderline

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// ErrBadParams reports invalid chain parameters.
var ErrBadParams = errors.New("borderline: invalid parameters")

// Chain is the µ = ∞ embedded process. Its state is (N, J): N peers, all
// holding the same J pieces, with (0, 0) the empty state.
type Chain struct {
	k      int
	lambda float64
	r      *rng.RNG
	kern   *kernel.Kernel

	n      int
	j      int
	halted bool

	stats Stats
}

// Stats counts the chain's structural events.
type Stats struct {
	Transitions    uint64
	TopArrivals    uint64 // top-layer same-piece arrivals (n grows)
	BatchDepByZ    uint64 // missing-piece arrivals resolved with Z departures
	GroupWipeouts  uint64 // missing-piece arrivals that emptied the old group
	LayerClimbs    uint64 // (n,j) → (n+1, j+1) new-piece arrivals below the top
	SumZ           uint64 // total departures caused by missing-piece arrivals
	MissingPieceAr uint64 // number of missing-piece arrivals (top layer)
}

// New builds a chain for K pieces with per-piece arrival rate lambda
// (total rate K·lambda) starting from the empty state.
func New(k int, lambda float64, seed uint64) (*Chain, error) {
	return NewFromRNG(k, lambda, rng.New(seed))
}

// NewFromRNG builds a chain driven by a pre-seeded generator; the parallel
// engine uses it to give each replica an independent stream. The chain
// takes ownership of the generator.
func NewFromRNG(k int, lambda float64, r *rng.RNG) (*Chain, error) {
	if k < 2 {
		return nil, fmt.Errorf("%w: K must be ≥ 2, got %d", ErrBadParams, k)
	}
	if !(lambda > 0) {
		return nil, fmt.Errorf("%w: λ = %v", ErrBadParams, lambda)
	}
	c := &Chain{k: k, lambda: lambda, r: r}
	c.kern = kernel.New(r, c)
	return c, nil
}

// SetState forces the chain into state (n, j); used to start experiments on
// the top layer directly. j must be in [1, K−1] when n ≥ 1. The occupancy
// estimator re-anchors at the new state so MeanPeers never integrates the
// pre-jump population over the post-jump path.
func (c *Chain) SetState(n, j int) error {
	if n < 0 || (n == 0 && j != 0) || (n > 0 && (j < 1 || j > c.k-1)) {
		return fmt.Errorf("%w: state (%d,%d)", ErrBadParams, n, j)
	}
	c.n, c.j = n, j
	c.kern.ResetOccupancy()
	return nil
}

// State returns the current (N, J).
func (c *Chain) State() (n, j int) { return c.n, c.j }

// Now returns the simulated time.
func (c *Chain) Now() float64 { return c.kern.Now() }

// MeanPeers returns the time-averaged population, courtesy of the kernel's
// occupancy estimator.
func (c *Chain) MeanPeers() float64 { return c.kern.MeanPopulation() }

// Stats returns the event counters.
func (c *Chain) Stats() Stats { return c.stats }

// Population implements kernel.Process.
func (c *Chain) Population() float64 { return float64(c.n) }

// Rates implements kernel.Process: a single event class — the next arrival
// of the embedded process, at total rate K·λ.
func (c *Chain) Rates(buf []float64) []float64 {
	return append(buf, float64(c.k)*c.lambda)
}

// Fire implements kernel.Process: one embedded transition of Figure 3.
func (c *Chain) Fire(int) error {
	c.stats.Transitions++

	if c.n == 0 {
		// First arrival: one random piece.
		c.n, c.j = 1, 1
		return nil
	}
	if c.j < c.k-1 {
		// Below the top layer. The arriving peer holds one uniform piece:
		// with probability j/K it duplicates a held piece and instantly
		// catches up; otherwise its new piece spreads to everyone (at
		// µ = ∞ one upload infects the group instantly) and the whole
		// system moves up a layer. No departures are possible because the
		// union of pieces still misses K−(j+1) ≥ 1 pieces.
		if c.r.Intn(c.k) < c.j {
			c.n++
			return nil
		}
		c.n++
		c.j++
		c.stats.LayerClimbs++
		return nil
	}
	// Top layer (n, K−1).
	if c.r.Intn(c.k) < c.j {
		// Arrival with a piece the club already has: instant catch-up.
		c.n++
		c.stats.TopArrivals++
		return nil
	}
	// Arrival with the missing piece: the fair-coin race of Figure 3.
	// Heads = the newcomer uploads the missing piece (one departure);
	// tails = the newcomer downloads one of the K−1 pieces it lacks.
	c.stats.MissingPieceAr++
	heads, tails := 0, 0
	for heads < c.n && tails < c.k-1 {
		if c.r.Bernoulli(0.5) {
			heads++
		} else {
			tails++
		}
	}
	c.stats.SumZ += uint64(heads)
	if tails == c.k-1 {
		// Newcomer completed and departed; Z = heads ≤ n−1 members left...
		// heads < n by the loop guard unless heads == n simultaneously.
		c.n -= heads
		c.stats.BatchDepByZ++
		if c.n == 0 {
			// Exactly the whole club departed along with the newcomer.
			c.j = 0
			c.stats.GroupWipeouts++
		}
		return nil
	}
	// The entire club departed before the newcomer finished downloading:
	// it remains alone with its original piece plus `tails` downloads.
	c.n = 1
	c.j = 1 + tails
	c.stats.GroupWipeouts++
	return nil
}

// SetTap attaches (nil detaches) a post-event observer tap — typically an
// obs.Set pipeline — to the chain's kernel, clearing any previous halt.
func (c *Chain) SetTap(t kernel.Tap) {
	c.halted = false
	c.kern.SetTap(t)
}

// Halted reports whether an attached stop-watcher ended the run.
func (c *Chain) Halted() bool { return c.halted }

// Step advances one embedded transition. The total rate K·λ is constant
// and positive, so the kernel step cannot fail; a failure other than an
// observer halt would be an invariant violation and panics. After a halt
// Step is a no-op until the tap is replaced via SetTap.
func (c *Chain) Step() {
	if c.halted {
		return
	}
	if err := c.kern.Step(); err != nil {
		if errors.Is(err, kernel.ErrHalted) {
			c.halted = true
			return
		}
		panic(fmt.Sprintf("borderline: kernel step failed: %v", err))
	}
}

// RunTransitions advances a fixed number of embedded transitions, stopping
// early when an attached watcher halts the chain.
func (c *Chain) RunTransitions(steps int) {
	defer c.kern.FlushMetrics() // exact kernel_events_total at run end
	for i := 0; i < steps && !c.halted; i++ {
		c.Step()
	}
}

// SampleMeanZ estimates E[Z] — the number of departures caused by one
// missing-piece arrival into an effectively infinite club — by direct
// sampling of the coin race on a caller-supplied generator, so the parallel
// engine can spread the trials across independent replica streams and
// average the per-stream means. The paper's null-recurrence argument rests
// on E[Z] = K−1 exactly.
func SampleMeanZ(k int, trials int, r *rng.RNG) (float64, error) {
	if k < 2 || trials <= 0 {
		return 0, ErrBadParams
	}
	var sum float64
	for i := 0; i < trials; i++ {
		heads, tails := 0, 0
		for tails < k-1 {
			if r.Bernoulli(0.5) {
				heads++
			} else {
				tails++
			}
		}
		sum += float64(heads)
	}
	return sum / float64(trials), nil
}
