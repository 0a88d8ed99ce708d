package hybrid

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/sim"
)

// stablePoint is an Example-1-style γ = ∞ instance (empty arrivals only)
// scaled so the equilibrium population is of order lambda0/mu sojourns.
func stablePoint(us, lambda0 float64) model.Params {
	return model.Params{
		K: 2, Us: us, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
}

// TestConfigValidate exercises the hysteresis-band checks.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{LeapEnter: 10, LeapExit: 20},   // inverted leap band
		{FluidEnter: 10},                // fluid band below LeapEnter default
		{Epsilon: 0.9},                  // relative-change bound too coarse
		{FluidTol: -1},                  // negative tolerance
		{LeapEnter: 64, CheckEvery: -1}, // negative check stride
		{MinLeapEvents: -3},             // negative leap-worthiness floor
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	fp := Config{NoLeap: true}.Fingerprint()
	if fp == (Config{}).Fingerprint() {
		t.Error("fingerprint ignores NoLeap")
	}
}

// TestExactReferenceMatchesSim: with leaping disabled the hybrid IS the
// exact simulator — same stream, same events, same final state — so the
// NoLeap mode used as the comparison baseline in the agreement tests is
// genuinely the exact chain.
func TestExactReferenceMatchesSim(t *testing.T) {
	p := stablePoint(5, 8)
	const seed, horizon = 42, 50.0

	h, err := New(p, WithSeed(seed), WithConfig(Config{NoLeap: true}))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := h.RunUntil(horizon, 0)
	if err != nil {
		t.Fatal(err)
	}

	sw, err := sim.New(p, sim.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sw.RunUntil(horizon, 0)
	if err != nil {
		t.Fatal(err)
	}

	if hr != sr {
		t.Fatalf("stop reason %v != %v", hr, sr)
	}
	if h.Now() != sw.Now() {
		t.Fatalf("time %v != %v", h.Now(), sw.Now())
	}
	if h.N() != sw.N() {
		t.Fatalf("population %d != %d", h.N(), sw.N())
	}
	if got, want := h.Stats().Events, sw.Stats().Events; got != want {
		t.Fatalf("events %d != %d", got, want)
	}
	for c, v := range sw.SparseCountsInto(map[pieceset.Set]int{}) {
		if h.CountOf(c) != v {
			t.Fatalf("count of %v: %d != %d", c, h.CountOf(c), v)
		}
	}
	if h.Stats().Leaps != 0 || h.Stats().FluidSteps != 0 {
		t.Fatalf("NoLeap mode leaped or flowed: %+v", h.Stats())
	}
}

// TestRegimesEngage: a large stable point must actually use the leap (and
// with permissive thresholds, the fluid) regime, and switching back and
// forth must preserve basic invariants.
func TestRegimesEngage(t *testing.T) {
	p := stablePoint(2000, 3000)
	h, err := New(p, WithSeed(7), WithConfig(Config{NoFluid: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunUntil(8, 0); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Leaps == 0 {
		t.Fatalf("no tau-leaps on a large stable point: %+v", st)
	}
	if st.ExactEvents == 0 {
		t.Fatalf("exact regime never ran (start is empty): %+v", st)
	}
	if st.Events != st.ExactEvents+st.LeapEvents {
		t.Fatalf("event accounting: %+v", st)
	}
	if got := st.ExactTime + st.LeapTime + st.FluidTime; math.Abs(got-h.Now()) > 1e-6 {
		t.Fatalf("regime times %v do not cover the run %v", got, h.Now())
	}
	if h.N() < 1000 {
		t.Fatalf("implausibly small population %d at a λ0=3000 stable point", h.N())
	}

	// Permissive fluid thresholds: the same point must hand off to the ODE.
	hf, err := New(p, WithSeed(7), WithConfig(Config{FluidEnter: 256, FluidExit: 128}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.RunUntil(8, 0); err != nil {
		t.Fatal(err)
	}
	if hf.Stats().FluidSteps == 0 {
		t.Fatalf("fluid regime never engaged: %+v", hf.Stats())
	}
	if hf.N() < 1000 {
		t.Fatalf("implausibly small population %d after fluid stretch", hf.N())
	}
}

// TestHybridDeterminism: one (seed, params, config) triple, one trajectory —
// repeated runs agree exactly in state, time, occupancy, and work counters.
func TestHybridDeterminism(t *testing.T) {
	p := stablePoint(800, 1200)
	run := func() (*Swarm, Stats) {
		h, err := New(p, WithSeed(99), WithConfig(Config{FluidEnter: 512, FluidExit: 256}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.RunUntil(6, 0); err != nil {
			t.Fatal(err)
		}
		return h, h.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats diverged:\n%+v\n%+v", sa, sb)
	}
	if a.Now() != b.Now() || a.N() != b.N() || a.MeanPeers() != b.MeanPeers() {
		t.Fatalf("state diverged: t=%v/%v n=%d/%d mean=%v/%v",
			a.Now(), b.Now(), a.N(), b.N(), a.MeanPeers(), b.MeanPeers())
	}
	for idx := range a.x {
		if a.x[idx] != b.x[idx] {
			t.Fatalf("coordinate %d diverged: %d != %d", idx, a.x[idx], b.x[idx])
		}
	}
}

// TestWatchHaltsInEveryRegime arms a one-club watch on an unstable point
// and checks the run halts with StopObserver at (or just past) the target.
func TestWatchHaltsInEveryRegime(t *testing.T) {
	// Unstable: λ0 far above the 2·Us threshold drives one-club growth.
	p := stablePoint(2, 40)
	h, err := New(p, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	h.WatchOneClub(1, 60)
	h.WatchOneClub(2, 60)
	reason, err := h.RunUntil(400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reason != sim.StopObserver {
		t.Fatalf("watch did not halt: %v (one-clubs %d/%d, t=%v)",
			reason, h.OneClub(1), h.OneClub(2), h.Now())
	}
	if h.OneClub(1) < 60 && h.OneClub(2) < 60 {
		t.Fatalf("halted below target: %d/%d", h.OneClub(1), h.OneClub(2))
	}
}

// TestPeerCapStops checks the population limit fires in the leap regime.
func TestPeerCapStops(t *testing.T) {
	p := stablePoint(2000, 3000)
	h, err := New(p, WithSeed(5), WithConfig(Config{NoFluid: true}))
	if err != nil {
		t.Fatal(err)
	}
	reason, err := h.RunUntil(50, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if reason != sim.StopPeers {
		t.Fatalf("stop reason %v, want peer cap", reason)
	}
	if h.N() < 2500 {
		t.Fatalf("stopped below the cap: %d", h.N())
	}
}

// TestScaledWorkReduction pins the deterministic work accounting behind the
// speedup claim: on a stable scaled point the hybrid advances the same
// horizon with orders of magnitude fewer stochastic steps than the exact
// chain needs events. (Wall-clock ratios live in BenchmarkHybridSpeedup.)
func TestScaledWorkReduction(t *testing.T) {
	p := stablePoint(20000, 30000)
	h, err := New(p, WithSeed(11), WithConfig(Config{NoFluid: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunUntil(4, 0); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	// The exact chain fires ≈ (λ0 + µ·N + Us)·t events; bound it below
	// crudely by the leap events actually batched.
	work := st.ExactEvents + st.Leaps + st.FluidSteps
	if work == 0 {
		t.Fatal("no work recorded")
	}
	if ratio := float64(st.Events) / float64(work); ratio < 20 {
		t.Fatalf("stochastic-step reduction %.1fx < 20x: %+v", ratio, st)
	}
}
