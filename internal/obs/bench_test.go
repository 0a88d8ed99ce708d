package obs

// Observer-overhead benchmarks: the kernel's fixed per-event cost with no
// tap attached (the observer-off baseline the < 2% acceptance bound is
// about — TestInstrumentationOverhead in internal/kernel enforces it
// against the pre-tap loop), with an empty tap, and with realistic
// pipelines attached.

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// benchProc is a minimal two-class birth–death process.
type benchProc struct {
	lambda, mu float64
	n          int
}

func (p *benchProc) Rates(buf []float64) []float64 {
	return append(buf, p.lambda, p.mu*float64(p.n))
}

func (p *benchProc) Fire(class int) error {
	if class == 0 {
		p.n++
	} else if p.n > 0 {
		p.n--
	}
	return nil
}

func (p *benchProc) Population() float64 { return float64(p.n) }

type noopTap struct{}

func (noopTap) OnEvent(float64, int, float64) {}

func benchKernel(b *testing.B, tap kernel.Tap) {
	p := &benchProc{lambda: 2, mu: 1, n: 100}
	k := kernel.New(rng.New(1), p)
	k.SetTap(tap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStepObserverOff is the observer-off event loop: the tap
// field exists but is nil, costing one predictable branch.
func BenchmarkKernelStepObserverOff(b *testing.B) { benchKernel(b, nil) }

// BenchmarkKernelStepNoopTap measures the dispatch cost of an attached
// do-nothing tap.
func BenchmarkKernelStepNoopTap(b *testing.B) { benchKernel(b, noopTap{}) }

// BenchmarkKernelStepSeries measures a realistic trajectory pipeline: one
// decimating series over the population.
func BenchmarkKernelStepSeries(b *testing.B) {
	p := &benchProc{lambda: 2, mu: 1, n: 100}
	k := kernel.New(rng.New(1), p)
	set := NewSet(NewSeries("n", 0, 0.05, 512, p.Population))
	k.SetTap(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStepFullPipeline measures the E17-style pipeline: a
// series, two watchers, and event-sampled quantiles.
func BenchmarkKernelStepFullPipeline(b *testing.B) {
	p := &benchProc{lambda: 2, mu: 1, n: 100}
	k := kernel.New(rng.New(1), p)
	set := NewSet(
		NewSeries("n", 0, 0.05, 512, p.Population),
		NewPopulationWatch("n100k", 1e5, false),
		NewWatch("never", false, func(_, pop float64) bool { return pop < 0 }),
		NewQuantiles("n", p.Population, 0.5, 0.9),
	)
	k.SetTap(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
