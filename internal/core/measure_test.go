package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
)

// fakeGrower scripts a swarm for the classification protocol: each
// RunUntil records its target and asks stop for the reason (default: run
// to the target at constant population).
type fakeGrower struct {
	now, mean float64
	n, resets int
	targets   []float64
	stop      func(call int) sim.StopReason
}

func (f *fakeGrower) RunUntil(maxTime float64, maxPeers int) (sim.StopReason, error) {
	f.targets = append(f.targets, maxTime)
	reason := sim.StopTime
	if f.stop != nil {
		reason = f.stop(len(f.targets) - 1)
	}
	switch reason {
	case sim.StopPeers:
		f.n = maxPeers
	case sim.StopTime:
		f.now = maxTime
	}
	return reason, nil
}

func (f *fakeGrower) ResetOccupancy()    { f.resets++ }
func (f *fakeGrower) Now() float64       { return f.now }
func (f *fakeGrower) N() int             { return f.n }
func (f *fakeGrower) MeanPeers() float64 { return f.mean }

func protocolConfig(t *testing.T, horizon float64, peerCap int) *RunConfig {
	t.Helper()
	cfg := &RunConfig{Horizon: horizon, PeerCap: peerCap}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestMeasureGrowthCapDuringBurnIn(t *testing.T) {
	cfg := protocolConfig(t, 100, 50)
	f := &fakeGrower{stop: func(int) sim.StopReason { return sim.StopPeers }}
	sample, err := cfg.measureGrowth(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if sample["grew"] != 1 {
		t.Errorf("sample = %v, want grew", sample)
	}
	if _, ok := sample["occupancy"]; ok {
		t.Errorf("grown replica recorded occupancy: %v", sample)
	}
	if f.resets != 0 || len(f.targets) != 1 || f.targets[0] != cfg.Horizon/5 {
		t.Errorf("resets = %d, targets = %v; want 0 resets and only the burn-in run to %v",
			f.resets, f.targets, cfg.Horizon/5)
	}
}

func TestMeasureGrowthHalfCapCountsAsGrew(t *testing.T) {
	for _, tc := range []struct {
		n    int
		grew bool
	}{{25, true}, {40, true}, {24, false}} {
		cfg := protocolConfig(t, 100, 50)
		f := &fakeGrower{n: tc.n, mean: 7.5}
		sample, err := cfg.measureGrowth(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		if got := sample["grew"] == 1; got != tc.grew {
			t.Errorf("final n=%d: grew = %v, want %v (sample %v)", tc.n, got, tc.grew, sample)
		}
		if !tc.grew && sample["occupancy"] != 7.5 {
			t.Errorf("final n=%d: occupancy = %v, want the swarm's mean 7.5", tc.n, sample["occupancy"])
		}
		if sample["final_n"] != float64(tc.n) {
			t.Errorf("final n=%d: final_n = %v", tc.n, sample["final_n"])
		}
		if f.resets != 1 {
			t.Errorf("final n=%d: %d occupancy resets, want 1 after burn-in", tc.n, f.resets)
		}
	}
}

// TestMeasureGrowthClampsLastSlice covers both rounding directions of the
// eight accumulated slices: at horizon 7 they overshoot it, at horizon 1
// they fall a sliver short and a ninth slice closes the gap. Either way no
// target passes the horizon and the last one is exactly it.
func TestMeasureGrowthClampsLastSlice(t *testing.T) {
	for _, horizon := range []float64{7, 1} {
		cfg := protocolConfig(t, horizon, 50)
		f := &fakeGrower{}
		if _, err := cfg.measureGrowth(context.Background(), f); err != nil {
			t.Fatal(err)
		}
		if n := len(f.targets); n < 9 || n > 10 {
			t.Errorf("horizon %v: %d RunUntil calls, want burn-in plus 8 or 9 slices", horizon, n)
		}
		for _, target := range f.targets {
			if target > horizon {
				t.Errorf("horizon %v: slice target %v passes it", horizon, target)
			}
		}
		if last := f.targets[len(f.targets)-1]; last != horizon {
			t.Errorf("horizon %v: last target %v, want exactly the horizon", horizon, last)
		}
	}
}

func TestMeasureGrowthStopObserverEndsEarly(t *testing.T) {
	cfg := protocolConfig(t, 100, 50)
	f := &fakeGrower{n: 3, mean: 2, stop: func(call int) sim.StopReason {
		if call == 3 {
			return sim.StopObserver
		}
		return sim.StopTime
	}}
	sample, err := cfg.measureGrowth(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.targets) != 4 {
		t.Errorf("%d RunUntil calls, want 4 (burn-in, then slices until the observer stop)", len(f.targets))
	}
	if _, grew := sample["grew"]; grew || sample["occupancy"] != 2 {
		t.Errorf("sample = %v, want a bounded replica with occupancy 2", sample)
	}
}

func TestMeasureGrowthCancelled(t *testing.T) {
	cfg := protocolConfig(t, 100, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeGrower{}
	if _, err := cfg.measureGrowth(ctx, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(f.targets) != 1 {
		t.Errorf("%d RunUntil calls, want only the burn-in before the first slice check", len(f.targets))
	}
}
