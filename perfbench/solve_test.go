package main

import (
	"math"
	"testing"

	"repro/internal/markov"
)

// TestSolveReferences recomputes the reference E[N] of every solve chain
// by Gauss–Seidel sweeps on πQ = 0 over the truncated generator, built
// from model.Params.Transitions on markov.Build's state enumeration but
// independent of markov.Stationary, and checks the checked-in values.
func TestSolveReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 46 376-state chain")
	}
	for _, c := range solveChains() {
		ch, err := markov.Build(c.params, c.nmax)
		if err != nil {
			t.Fatal(err)
		}
		n := ch.NumStates()
		index := make(map[string]int, n)
		for i := 0; i < n; i++ {
			index[ch.State(i).Key()] = i
		}
		type inEdge struct {
			from int
			rate float64
		}
		in := make([][]inEdge, n)
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			ts, err := c.params.Transitions(ch.State(i))
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range ts {
				if tr.Next.N() > c.nmax {
					continue // censored at the truncation boundary
				}
				j := index[tr.Next.Key()]
				if j == i {
					continue // a self-loop leaves πQ unchanged
				}
				in[j] = append(in[j], inEdge{i, tr.Rate})
				out[i] += tr.Rate
			}
		}
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		residual := math.Inf(1)
		for sweep := 0; sweep < 20000 && residual > 1e-15; sweep++ {
			var total float64
			for j := range pi {
				var s float64
				for _, e := range in[j] {
					s += pi[e.from] * e.rate
				}
				pi[j] = s / out[j]
				total += pi[j]
			}
			residual = 0
			for j := range pi {
				pi[j] /= total
			}
			for j := range pi {
				s := -pi[j] * out[j]
				for _, e := range in[j] {
					s += pi[e.from] * e.rate
				}
				residual = math.Max(residual, math.Abs(s))
			}
		}
		var meanN float64
		for i, p := range pi {
			meanN += p * float64(ch.State(i).N())
		}
		if residual > 1e-15 {
			t.Errorf("%s: Gauss–Seidel residual %g", c.label, residual)
		}
		if rel := math.Abs(meanN-c.refMeanN) / meanN; rel > 1e-9 {
			t.Errorf("%s: E[N] = %.12g, checked-in reference %.12g (rel %g)", c.label, meanN, c.refMeanN, rel)
		}
	}
}
