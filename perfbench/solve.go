package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/pieceset"
)

// Tolerances of the solve checks.
const (
	// solveResidualTol bounds the sup-norm of πQ. The chains' rates are
	// O(1), so this is global balance to one part in a million per state.
	solveResidualTol = 1e-6
	// solveBoundaryTol bounds P{N = nmax}; truncation then moves E[N] by
	// at most about nmax × 1e-4 ≈ 1% of a peer.
	solveBoundaryTol = 1e-4
	// solveMeanNTol bounds |E[N] − reference| / reference: agreement at
	// the four significant digits the E10 and E14 tables print (half a
	// unit in the fourth digit of a value with leading digit 1).
	solveMeanNTol = 5e-4
)

// chainSpec is one truncated chain of the solve workload, solved with the
// iteration limit and tolerance its experiment passes to Stationary.
type chainSpec struct {
	label   string
	params  model.Params
	nmax    int
	maxIter int
	tol     float64
	// refMeanN is E[N] of the truncated chain from an independent
	// Gauss–Seidel solve of πQ = 0 to a residual below 1e-16 (see
	// TestSolveReferences, which recomputes it).
	refMeanN float64
}

// solveChains returns the chains experiments -quick solves: E10's three
// validation chains (Stationary with default limits) and E14's margin 1
// and margin 0.5 cells (2e6 iterations, tolerance 1e-10).
func solveChains() []chainSpec {
	k1 := func(l float64) model.Params {
		return model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2, Lambda: map[pieceset.Set]float64{pieceset.Empty: l}}
	}
	k2 := model.Params{K: 2, Us: 1, Mu: 1, Gamma: 2, Lambda: map[pieceset.Set]float64{
		pieceset.Empty: 0.4, pieceset.MustOf(1): 0.2,
	}}
	return []chainSpec{
		{label: "E10 K=1 λ0=0.8", params: k1(0.8), nmax: 60, refMeanN: 2.49366513235},
		{label: "E10 K=1 λ0=1.2", params: k1(1.2), nmax: 70, refMeanN: 6.69764533348},
		{label: "E10 K=2", params: k2, nmax: 30, refMeanN: 2.07451335021},
		{label: "E14 margin 1", params: k1(1), nmax: 70, maxIter: 2_000_000, tol: 1e-10, refMeanN: 4.06687256407},
		{label: "E14 margin 0.5", params: k1(1.5), nmax: 100, maxIter: 2_000_000, tol: 1e-10, refMeanN: 15.6273184325},
	}
}

// prepareSolve builds the truncated state space of every chain — the
// solver's input, so its construction is the workload's set-up. The timed
// job solves and certifies the chains one at a time on one thread. The
// inputs do not depend on the seed.
func prepareSolve(e *env) (*job, error) {
	specs := solveChains()
	chains := make([]*markov.Chain, len(specs))
	t0 := time.Now()
	for i, c := range specs {
		ch, err := markov.Build(c.params, c.nmax)
		if err != nil {
			return nil, fmt.Errorf("solve: %s: %w", c.label, err)
		}
		chains[i] = ch
	}
	built := time.Since(t0)
	return &job{run: func(ctx context.Context) (*outcome, error) {
		out := newOutcome()
		out.extra["markov.build_s"] = built.Seconds()
		for i, c := range specs {
			if err := solveOne(ctx, e.rec, c, chains[i], out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}}, nil
}

func solveOne(ctx context.Context, rec *recorder, c chainSpec, ch *markov.Chain, out *outcome) error {
	_, id := rec.begin(ctx, "markov.solve", false)
	res, err := ch.Stationary(c.maxIter, c.tol)
	rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("solve: %s: %w", c.label, err)
	}
	_, id = rec.begin(ctx, "markov.check", false)
	resid, err := ch.StationarityResidual(res)
	rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("solve: %s: %w", c.label, err)
	}
	relErr := math.Abs(res.MeanN-c.refMeanN) / c.refMeanN
	ok := resid <= solveResidualTol && res.BoundaryMass <= solveBoundaryTol && relErr <= solveMeanNTol
	out.op(ok, "solve %s: residual %.3g (tol %g), boundary mass %.3g (tol %g), E[N] %.10g vs reference %.10g (rel %.3g, tol %g)",
		c.label, resid, solveResidualTol, res.BoundaryMass, solveBoundaryTol, res.MeanN, c.refMeanN, relErr, solveMeanNTol)
	states := float64(ch.NumStates())
	out.add("markov.states", states)
	out.add("markov.iterations", float64(res.Iterations))
	out.add("markov.state_iterations", states*float64(res.Iterations))
	out.setMax("markov.residual_max", resid)
	out.setMax("markov.boundary_mass_max", res.BoundaryMass)
	out.setMax("markov.mean_n_rel_err_max", relErr)
	out.answer("%s states=%d iter=%d mean_n=%x seeds=%x boundary=%x residual=%x",
		c.label, ch.NumStates(), res.Iterations, math.Float64bits(res.MeanN),
		math.Float64bits(res.MeanSeeds), math.Float64bits(res.BoundaryMass), math.Float64bits(resid))
	return nil
}
