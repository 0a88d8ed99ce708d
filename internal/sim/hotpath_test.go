package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/racegate"
)

// hotParams is the stationary hot-path workload: γ = ∞ so completions
// depart instantly, and unit-rate churn balances λ_total = n, pinning the
// population near n whatever b.N is. Arrivals mix empty peers with every
// one-piece type so the type space stays broadly occupied.
func hotParams(k, n int) (model.Params, kernel.Scenario) {
	lam := map[pieceset.Set]float64{pieceset.Empty: 0.4 * float64(n)}
	w := 0.6 / float64(k)
	for i := 1; i <= k; i++ {
		lam[pieceset.MustOf(i)] = w * float64(n)
	}
	p := model.Params{K: k, Us: 1, Mu: 1, Gamma: math.Inf(1), Lambda: lam}
	return p, kernel.Scenario{Churn: 1}
}

// hotSwarm builds the workload and runs it to quasi-stationarity so every
// internal buffer — Fenwick slots, picker, rate scratch — has reached its
// working size before measurement.
func hotSwarm(tb testing.TB, k, n, warmupEvents int) *Swarm {
	tb.Helper()
	p, sc := hotParams(k, n)
	s, err := New(p, WithSeed(7), WithScenario(sc))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warmupEvents; i++ {
		if err := s.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if s.N() < n/2 {
		tb.Fatalf("warmup did not reach steady state: N = %d, want ≈ %d", s.N(), n)
	}
	return s
}

// TestStepAllocsSteadyState gates the per-event path at zero heap
// allocations. K = 6 keeps the proper-type space (63 sets) small enough
// that, at n = 2000, every type is essentially always occupied, so the
// Fenwick multiset's slot table saturates during warmup and the measured
// window cannot trigger growth. Skipped under -race, whose instrumentation
// allocates on its own.
func TestStepAllocsSteadyState(t *testing.T) {
	if racegate.Enabled {
		t.Skip("allocation gate needs a non-race build")
	}
	s := hotSwarm(t, 6, 2000, 80_000)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %v allocs per 50 events, want 0", allocs)
	}
}

// BenchmarkHotPathStep measures steady-state events/sec on the type-count
// simulator at the target populations.
func BenchmarkHotPathStep(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := hotSwarm(b, 10, n, 15*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
