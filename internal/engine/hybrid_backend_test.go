package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/model"
	"repro/internal/pieceset"
)

// TestHybridBackendDeterministicAcrossWorkers pins the hybrid backend's
// half of the engine determinism contract: every replica draws only from
// its private stream (the exact kernel segments, the tau-leap Poisson
// counts; the fluid regime draws nothing), so per-replica records are
// byte-identical however the pool schedules them. Runs under -race in CI,
// which also exercises the shared hybrid trace track from many goroutines.
func TestHybridBackendDeterministicAcrossWorkers(t *testing.T) {
	p := model.Params{
		K: 2, Us: 400, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 600},
	}
	job := func(workers int) *Result {
		res, err := Run(context.Background(), Job{
			Name: "hybrid-determinism",
			Backend: &HybridBackend{
				Params:  p,
				Options: []hybrid.Option{hybrid.WithConfig(hybrid.Config{FluidEnter: 256, FluidExit: 128})},
				Measure: func(ctx context.Context, rep int, h *hybrid.Swarm) (Sample, error) {
					if _, err := h.RunUntil(5, 0); err != nil {
						return nil, err
					}
					st := h.Stats()
					return Sample{
						"final_n":   float64(h.N()),
						"occupancy": h.MeanPeers(),
						"now":       h.Now(),
						"events":    float64(st.Events),
						"leaps":     float64(st.Leaps),
						"fluid":     float64(st.FluidSteps),
						"switches":  float64(st.Switches),
					}, nil
				},
			},
			Replicas: 6,
			Seed:     13,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := job(1)
	if base.Count("leaps") == 0 || base.Mean("leaps") == 0 {
		t.Fatalf("replicas never leaped; the determinism check is vacuous")
	}
	for _, workers := range []int{2, 8} {
		got := job(workers)
		for i := range base.Records {
			if !reflect.DeepEqual(base.Sample(i), got.Sample(i)) {
				t.Errorf("workers=%d replica %d diverged:\n  1: %v\n  %d: %v",
					workers, i, base.Sample(i), workers, got.Sample(i))
			}
		}
	}
}
