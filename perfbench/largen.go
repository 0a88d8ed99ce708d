package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/peersim"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

// The large-n job: the stationary γ=∞ plus unit-churn point of
// peersim's BenchmarkHotPathStep at N = 1e6 peers. Arrivals at total rate
// N (40% empty, 6% with each single piece) balance unit-rate churn, so
// the population stays near N while every event class fires.
const (
	largeN      = 1_000_000
	largeChunks = 6         // checked stretches of stepping per run
	largeChunk  = 1_000_000 // kernel events per stretch
	// largeBand is the relative band around N the population must stay in.
	largeBand = 0.05
)

func largeParams() model.Params {
	lam := map[pieceset.Set]float64{pieceset.Empty: 0.4 * largeN}
	for i := 1; i <= 10; i++ {
		lam[pieceset.MustOf(i)] = 0.06 * largeN
	}
	return model.Params{K: 10, Us: 1, Mu: 1, Gamma: math.Inf(1), Lambda: lam}
}

// initialPeers draws N peers' types from the arrival mix with the seed's
// stream: the swarm starts at its size with the mix arrivals bring.
func initialPeers(p model.Params, seed uint64) (map[pieceset.Set]int, error) {
	types := p.ArrivalTypes()
	weights := make([]float64, len(types))
	for i, c := range types {
		weights[i] = p.Lambda[c]
	}
	pick, err := rng.NewPicker(weights)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	counts := make(map[pieceset.Set]int, len(types))
	for i := 0; i < largeN; i++ {
		counts[types[pick.Pick(r)]]++
	}
	return counts, nil
}

// prepareLargeN builds the 1e6-peer state; that construction is the
// workload's set-up. The run steps it in checked stretches.
func prepareLargeN(e *env) (*job, error) {
	p := largeParams()
	counts, err := initialPeers(p, e.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sw, err := peersim.New(p, peersim.WithSeed(e.seed), peersim.WithScenario(kernel.Scenario{Churn: 1}), peersim.WithInitialPeers(counts))
	built := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &job{run: func(ctx context.Context) (*outcome, error) {
		out := newOutcome()
		out.extra["peersim.setup_s"] = built.Seconds()
		lo, hi := (1-largeBand)*largeN, (1+largeBand)*largeN
		for c := 0; c < largeChunks; c++ {
			_, id := e.rec.begin(ctx, "peersim.step", false)
			var err error
			for i := 0; i < largeChunk && err == nil; i++ {
				err = sw.Step()
			}
			e.rec.end(id, largeChunk)
			if err != nil {
				return nil, fmt.Errorf("large-n: step: %w", err)
			}
			n := float64(sw.N())
			out.op(n >= lo && n <= hi, "large-n: population %v after %d events, outside [%v, %v]", n, (c+1)*largeChunk, lo, hi)
			out.events += largeChunk
		}
		out.add("peersim.events", out.events)
		out.add("peersim.peers", float64(sw.N()))
		out.answer("n=%d t=%x departed=%d abandoned=%d", sw.N(), math.Float64bits(sw.Now()), sw.Departed(), sw.Abandoned())
		for piece := 1; piece <= p.K; piece++ {
			out.answer("holders[%d]=%d", piece, sw.Holders(piece))
		}
		return out, nil
	}}, nil
}
