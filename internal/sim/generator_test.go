package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
)

// TestEmpiricalRatesMatchGenerator is the keystone validation test: from a
// fixed state, the simulator's one-step empirical behaviour must match the
// generator matrix Q enumerated by internal/model — same jump distribution,
// same mean holding time. This pins the event-sampling logic to equation
// (1) without sharing any code path.
func TestEmpiricalRatesMatchGenerator(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1.5, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.Empty:     0.8,
			pieceset.MustOf(2): 0.4,
		},
	}
	initial := map[pieceset.Set]int{
		pieceset.Empty:     3,
		pieceset.MustOf(1): 2,
		pieceset.MustOf(2): 1,
		pieceset.Full(2):   2,
	}
	// Build the dense state and its generator row.
	x := model.NewState(p.K)
	for c, v := range initial {
		x[int(c)] = v
	}
	transitions, err := p.Transitions(x)
	if err != nil {
		t.Fatal(err)
	}
	var totalRate float64
	wantProb := make(map[string]float64)
	for _, tr := range transitions {
		totalRate += tr.Rate
		wantProb[fmt.Sprint(tr.Next)] += tr.Rate
	}
	for k := range wantProb {
		wantProb[k] /= totalRate
	}

	// Run many independent single steps; no-op events keep the state
	// unchanged, so we step until the state actually changes (the embedded
	// jump chain), which is distributed per the generator row.
	const trials = 60000
	gotCount := make(map[string]int)
	var holdSum float64
	startKey := fmt.Sprint(x)
	for i := 0; i < trials; i++ {
		s, err := New(p, WithSeed(uint64(i)+12345), WithInitialPeers(initial))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if key := fmt.Sprint(snap); key != startKey {
				gotCount[key]++
				holdSum += s.Now()
				break
			}
		}
	}

	// Holding time: mean of Exp(totalRate).
	wantHold := 1 / totalRate
	gotHold := holdSum / trials
	if math.Abs(gotHold-wantHold) > 0.03*wantHold {
		t.Errorf("mean holding time = %v, want %v", gotHold, wantHold)
	}

	// Jump distribution: every generator target must appear with the right
	// frequency (±4 sigma), and no unexpected states may appear.
	for key, want := range wantProb {
		got := float64(gotCount[key]) / trials
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 4*sigma+1e-4 {
			t.Errorf("state %q: empirical prob %v, generator %v", key, got, want)
		}
	}
	for key := range gotCount {
		if _, ok := wantProb[key]; !ok {
			t.Errorf("simulator reached state %q not in generator row", key)
		}
	}
}

// TestEmpiricalRatesGammaInf repeats the validation in the γ = ∞ regime,
// where completions exit instantly.
func TestEmpiricalRatesGammaInf(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 2, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.MustOf(1): 1},
	}
	initial := map[pieceset.Set]int{
		pieceset.MustOf(1): 2,
		pieceset.MustOf(2): 2,
	}
	x := model.NewState(p.K)
	for c, v := range initial {
		x[int(c)] = v
	}
	transitions, err := p.Transitions(x)
	if err != nil {
		t.Fatal(err)
	}
	var totalRate float64
	wantProb := make(map[string]float64)
	for _, tr := range transitions {
		totalRate += tr.Rate
		wantProb[fmt.Sprint(tr.Next)] += tr.Rate
	}
	for k := range wantProb {
		wantProb[k] /= totalRate
	}

	const trials = 40000
	gotCount := make(map[string]int)
	startKey := fmt.Sprint(x)
	for i := 0; i < trials; i++ {
		s, err := New(p, WithSeed(uint64(i)+777), WithInitialPeers(initial))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if key := fmt.Sprint(snap); key != startKey {
				gotCount[key]++
				break
			}
		}
	}
	for key, want := range wantProb {
		got := float64(gotCount[key]) / trials
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 4*sigma+1e-4 {
			t.Errorf("state %q: empirical prob %v, generator %v", key, got, want)
		}
	}
	for key := range gotCount {
		if _, ok := wantProb[key]; !ok {
			t.Errorf("simulator reached unexpected state %q", key)
		}
	}
}
