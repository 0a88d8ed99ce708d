package kernel

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/racegate"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stepBaseline is a verbatim copy of Kernel.Step without the tap branch and
// the instrumentation compare — the seed event loop. The nil-tap row of
// TestInstrumentationOverhead measures Step against it. Keep this in sync
// with Step when the event loop changes.
func (k *Kernel) stepBaseline() error {
	k.rates = k.proc.Rates(k.rates[:0])
	var total float64
	for _, r := range k.rates {
		total += r
	}
	if total <= 0 {
		return ErrNoProgress
	}
	k.now += k.r.Exp(total)
	k.events++

	u := k.r.Float64() * total
	class := -1
	for i, r := range k.rates {
		if r <= 0 {
			continue
		}
		class = i
		u -= r
		if u < 0 {
			break
		}
	}
	if err := k.proc.Fire(class); err != nil {
		return err
	}
	k.occ.Observe(k.now, k.proc.Population())
	return nil
}

const (
	overheadPairs     = 100    // paired on/off measurements per row
	overheadPairSteps = 20_000 // kernel steps per side of a pair
	overheadLimit     = 1.02   // the 2% claim, as an on/off time ratio
	// P(Bin(100, ½) ≤ 39) = 1.8% ≤ 2.5%, so sorted ratios [39] and [60]
	// bound the median with ≥ 95% coverage, whatever their distribution.
	signTestRank = 39
)

// overheadCI times the on and off step functions in interleaved pairs,
// alternating which side runs first, and returns the median on/off time
// ratio with a distribution-free 95% confidence interval: the sign-test
// order statistics of the sorted per-pair ratios (Kalibera & Jones,
// "Rigorous Benchmarking in Reasonable Time", ISMM 2013). Pairing cancels
// drift that is slow against one pair; the median ignores the pairs a
// scheduler hiccup lands on. Every pair steps freshly built kernels, so
// the heap placement of their state, which can shift one kernel's speed
// by several percent for as long as it lives, varies from pair to pair
// instead of biasing the whole row. The process is pinned to one P with
// the collector off while timing.
func overheadCI(newOn, newOff func() func() error) (lo, med, hi float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(step func() error) time.Duration {
		start := time.Now()
		for i := 0; i < overheadPairSteps; i++ {
			if err := step(); err != nil {
				panic(err)
			}
		}
		return time.Since(start)
	}
	run(newOn()) // warm caches and branch predictors on both paths
	run(newOff())
	ratios := make([]float64, overheadPairs)
	for i := range ratios {
		on, off := newOn(), newOff()
		var dOn, dOff time.Duration
		if i%2 == 0 {
			dOn, dOff = run(on), run(off)
		} else {
			dOff, dOn = run(off), run(on)
		}
		ratios[i] = float64(dOn) / float64(dOff)
	}
	sort.Float64s(ratios)
	return ratios[signTestRank], ratios[overheadPairs/2], ratios[overheadPairs-1-signTestRank]
}

// TestInstrumentationOverhead enforces the kernel's instrumentation cost
// claims: a nil tap, a bound telemetry registry, and a bound tracer each
// keep Step within 2% of the loop without them. A row fails when the 95%
// confidence interval's lower bound on the on/off time ratio exceeds
// 1.02. The mutation row proves the gate can fail: its "on" side adds a
// dependent floating-point spin, which the harness must measure as a
// slowdown of at least 5% and the gate must reject. Both sides of a pair
// step identically seeded kernels, so they time the same events.
// Skipped in -short mode and under the race detector;
// BenchmarkKernelStep* in internal/obs record the nil-tap pair in CI's
// BENCH_obs.json artifact.
func TestInstrumentationOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if racegate.Enabled {
		t.Skip("timing gate skipped under the race detector")
	}
	plain := func() *Kernel { return New(rng.New(1), &birthDeath{lambda: 2, mu: 1, n: 100}) }
	reg := telemetry.New()
	withTelemetry := func() *Kernel {
		telemetry.SetDefault(reg)
		defer telemetry.SetDefault(nil)
		k := plain()
		if !k.met.events.Live() {
			t.Fatal("telemetry row bound no registry")
		}
		return k
	}
	// Flight-recorder configuration: rings stay hot and wrap; no stream I/O
	// happens during the measured loop (birthDeath never anomalies).
	tr := trace.New(trace.Config{FlightPath: filepath.Join(t.TempDir(), "flight.json")})
	withTrace := func() *Kernel {
		trace.SetDefault(tr)
		defer trace.SetDefault(nil)
		k := plain()
		if k.trc == nil {
			t.Fatal("trace row bound no tracer")
		}
		return k
	}
	plainStep := func() func() error { return plain().Step }
	spin := 1.0
	slowStep := func() func() error {
		k := plain()
		return func() error {
			for i := 0; i < 5; i++ {
				spin = spin*1.0000001 + 1e-9
			}
			return k.Step()
		}
	}

	rows := []struct {
		name     string
		on, off  func() func() error // build a fresh kernel, return its step
		wantFail bool
	}{
		{"nil-tap", plainStep, func() func() error { return plain().stepBaseline }, false},
		{"telemetry", func() func() error { return withTelemetry().Step }, plainStep, false},
		{"trace", func() func() error { return withTrace().Step }, plainStep, false},
		{"mutation", slowStep, plainStep, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			lo, med, hi := overheadCI(row.on, row.off)
			t.Logf("on/off time ratio: median %.4f, 95%% CI [%.4f, %.4f] over %d pairs of %d steps",
				med, lo, hi, overheadPairs, overheadPairSteps)
			if failed := lo > overheadLimit; failed != row.wantFail {
				t.Errorf("gate failed = %v, want %v (limit %.2f)", failed, row.wantFail, overheadLimit)
			}
			if row.wantFail && med < 1.05 {
				t.Errorf("mutation slowdown measured at %.1f%%, want >= 5%%", 100*(med-1))
			}
		})
	}
}
