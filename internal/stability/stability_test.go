package stability

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/pieceset"
)

func example1Params(lambda0, us, mu, gamma float64) model.Params {
	return model.Params{
		K: 1, Us: us, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
}

// TestExample1 pins Theorem 1 against the worked Example 1 of the paper:
// K = 1, stable iff µ ≥ γ or λ0 < U_s/(1−µ/γ).
func TestExample1(t *testing.T) {
	const us, mu, gamma = 1.0, 1.0, 2.0
	threshold := Example1Threshold(us, mu, gamma) // 1/(1−1/2) = 2
	if math.Abs(threshold-2) > 1e-12 {
		t.Fatalf("Example1Threshold = %v, want 2", threshold)
	}
	tests := []struct {
		lambda0 float64
		want    Verdict
	}{
		{0.5, PositiveRecurrent},
		{1.9, PositiveRecurrent},
		{2.0, Borderline},
		{2.1, Transient},
		{10, Transient},
	}
	for _, tt := range tests {
		a, err := Classify(example1Params(tt.lambda0, us, mu, gamma))
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != tt.want {
			t.Errorf("λ0=%v: verdict = %v, want %v", tt.lambda0, a.Verdict, tt.want)
		}
		if a.CriticalPiece != 1 {
			t.Errorf("critical piece = %d", a.CriticalPiece)
		}
	}
}

// TestExample1GammaLeMu verifies the corollary branch: γ ≤ µ stabilizes any
// arrival rate as long as the piece can enter.
func TestExample1GammaLeMu(t *testing.T) {
	a, err := Classify(example1Params(1000, 0.01, 1, 1)) // γ = µ
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != PositiveRecurrent || !a.GammaLeMu {
		t.Errorf("verdict = %+v, want recurrent via γ≤µ branch", a)
	}
	// With U_s = 0 and empty arrivals only, piece 1 can never enter.
	p := example1Params(5, 0, 1, 1)
	a, err = Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Transient || a.BlockedPiece != 1 {
		t.Errorf("verdict = %+v, want transient with blocked piece 1", a)
	}
}

func example2Params(l12, l34 float64) model.Params {
	return model.Params{
		K: 4, Us: 0, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{
			pieceset.MustOf(1, 2): l12,
			pieceset.MustOf(3, 4): l34,
		},
	}
}

// TestExample2 pins Theorem 1 against Example 2: stable iff λ12 < 2λ34 and
// λ34 < 2λ12.
func TestExample2(t *testing.T) {
	tests := []struct {
		l12, l34 float64
		want     Verdict
	}{
		{1, 1, PositiveRecurrent},
		{1.9, 1, PositiveRecurrent},
		{2.1, 1, Transient},
		{1, 2.1, Transient},
		{2, 1, Borderline},
		{0.4, 1, Transient}, // λ34 > 2λ12
	}
	for _, tt := range tests {
		a, err := Classify(example2Params(tt.l12, tt.l34))
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != tt.want {
			t.Errorf("λ12=%v λ34=%v: verdict = %v, want %v",
				tt.l12, tt.l34, a.Verdict, tt.want)
		}
	}
}

// TestExample2Threshold checks the threshold arithmetic directly: for piece
// k ∈ {3,4}, the bound is λ34·(K+1−2) = 3λ34, and λ_total = λ12+λ34 < 3λ34
// ⇔ λ12 < 2λ34.
func TestExample2Threshold(t *testing.T) {
	p := example2Params(1.5, 1)
	th := ThresholdFor(p, 3)
	if math.Abs(th-3) > 1e-12 {
		t.Errorf("threshold for piece 3 = %v, want 3", th)
	}
	th = ThresholdFor(p, 1)
	if math.Abs(th-4.5) > 1e-12 {
		t.Errorf("threshold for piece 1 = %v, want 4.5", th)
	}
}

func example3Params(l1, l2, l3, mu, gamma float64) model.Params {
	return model.Params{
		K: 3, Us: 0, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{
			pieceset.MustOf(1): l1,
			pieceset.MustOf(2): l2,
			pieceset.MustOf(3): l3,
		},
	}
}

// TestExample3 pins Theorem 1 against Example 3 (K = 3, single-piece
// arrivals, peer seeds with rate γ > µ).
func TestExample3(t *testing.T) {
	const mu, gamma = 1.0, 2.0
	factor := Example3Factor(mu, gamma) // (2+0.5)/(1-0.5) = 5
	if math.Abs(factor-5) > 1e-12 {
		t.Fatalf("Example3Factor = %v, want 5", factor)
	}
	tests := []struct {
		l1, l2, l3 float64
		want       Verdict
	}{
		{1, 1, 1, PositiveRecurrent},    // 2 < 5 each way
		{1, 1, 0.41, PositiveRecurrent}, // λ1+λ2 = 2 < 5·0.41
		{1, 1, 0.39, Transient},         // 2 > 5·0.39
		{10, 1, 1, Transient},           // λ2+λ3 = 2 < 5·10 fine, but λ1+... check: λ2+λ3=2 < 50; λ1+λ2=11 > 5 → transient
		{1, 1, 0.4, Borderline},         // equality
	}
	for _, tt := range tests {
		a, err := Classify(example3Params(tt.l1, tt.l2, tt.l3, mu, gamma))
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != tt.want {
			t.Errorf("λ=(%v,%v,%v): verdict = %v, want %v",
				tt.l1, tt.l2, tt.l3, a.Verdict, tt.want)
		}
	}
}

// TestExample3GammaInf verifies the γ = ∞ special case quoted in the paper:
// with unequal single-piece arrival rates the system is unstable.
func TestExample3GammaInf(t *testing.T) {
	a, err := Classify(example3Params(1, 1, 1.01, 1, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Transient {
		t.Errorf("unequal γ=∞ verdict = %v, want transient", a.Verdict)
	}
	// Equal rates sit exactly on the borderline (Conjecture 17 territory).
	a, err = Classify(example3Params(1, 1, 1, 1, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Borderline {
		t.Errorf("symmetric γ=∞ verdict = %v, want borderline", a.Verdict)
	}
}

// TestDeltaEquivalence verifies the remark after Theorem 1: the threshold
// form (3) and the ∆_S form (4) agree, and the max of ∆_S over all S is
// attained at some S = F−{k}.
func TestDeltaEquivalence(t *testing.T) {
	p := example3Params(1.2, 0.7, 0.9, 1, 3)
	a, err := Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	_, maxDelta, err := MaxDeltaS(p)
	if err != nil {
		t.Fatal(err)
	}
	// Verdict from ∆: transient iff max ∆_S > 0.
	switch a.Verdict {
	case PositiveRecurrent:
		if maxDelta >= 0 {
			t.Errorf("recurrent but max ∆ = %v", maxDelta)
		}
	case Transient:
		if maxDelta <= 0 {
			t.Errorf("transient but max ∆ = %v", maxDelta)
		}
	}
	// The maximizer must be achieved at a set of size K−1.
	bestS, best, err := MaxDeltaS(p)
	if err != nil {
		t.Fatal(err)
	}
	var bestCoDim1 float64 = math.Inf(-1)
	for k := 1; k <= p.K; k++ {
		d, err := DeltaS(p, pieceset.Full(p.K).Without(k))
		if err != nil {
			t.Fatal(err)
		}
		if d > bestCoDim1 {
			bestCoDim1 = d
		}
	}
	if math.Abs(best-bestCoDim1) > 1e-9 {
		t.Errorf("max ∆_S = %v at %v, but best co-dim-1 ∆ = %v", best, bestS, bestCoDim1)
	}
}

// Property-based version of the equivalence across random parameter draws.
func TestQuickDeltaThresholdEquivalence(t *testing.T) {
	f := func(rawUs, rawL1, rawL2, rawL3, rawMu uint16) bool {
		us := float64(rawUs%100) / 10
		l1 := float64(rawL1%100)/10 + 0.01
		l2 := float64(rawL2%100) / 10
		l3 := float64(rawL3%100) / 10
		mu := float64(rawMu%50)/10 + 0.1
		gamma := mu*2 + 0.5 // ensure µ < γ
		p := model.Params{
			K: 3, Us: us, Mu: mu, Gamma: gamma,
			Lambda: map[pieceset.Set]float64{
				pieceset.MustOf(1):    l1,
				pieceset.MustOf(2, 3): l2,
				pieceset.Empty:        l3,
			},
		}
		lt := p.LambdaTotal()
		for k := 1; k <= 3; k++ {
			th := ThresholdFor(p, k)
			d, err := DeltaS(p, pieceset.Full(3).Without(k))
			if err != nil {
				return false
			}
			// Signs must agree: λ_total − threshold and ∆_{F−{k}}.
			diff := lt - th
			if diff > 1e-9 && d <= 0 {
				return false
			}
			if diff < -1e-9 && d >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ∆_S is monotone under set inclusion (S ⊆ S' ⇒ ∆_S ≤ ∆_S'),
// which is why only co-dimension-1 sets matter.
func TestQuickDeltaMonotone(t *testing.T) {
	p := example3Params(1.5, 0.8, 1.1, 1, 4)
	f := func(rawS uint8) bool {
		s := pieceset.Set(rawS) & pieceset.Full(3)
		if s.IsFull(3) {
			return true
		}
		dS, err := DeltaS(p, s)
		if err != nil {
			return false
		}
		for _, sup := range pieceset.All(3) {
			if !s.SubsetOf(sup) || sup.IsFull(3) {
				continue
			}
			dSup, err := DeltaS(p, sup)
			if err != nil {
				return false
			}
			if dS > dSup+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaSErrors(t *testing.T) {
	p := example3Params(1, 1, 1, 1, 2)
	if _, err := DeltaS(p, pieceset.Full(3)); err == nil {
		t.Error("∆_F must error")
	}
	p.Gamma = 0.5 // γ ≤ µ
	if _, err := DeltaS(p, pieceset.Empty); err == nil {
		t.Error("∆_S with γ ≤ µ must error")
	}
}

func TestClassifyRejectsInvalid(t *testing.T) {
	if _, err := Classify(model.Params{}); err == nil {
		t.Error("invalid params must error")
	}
}

func TestOneClubGrowthRate(t *testing.T) {
	// Example 1 transient: growth rate = λ0 − U_s/(1−µ/γ).
	p := example1Params(5, 1, 1, 2)
	g, err := OneClubGrowthRate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 - 2.0
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("growth rate = %v, want %v", g, want)
	}
}

func TestThresholdGammaInf(t *testing.T) {
	p := example1Params(1, 3, 1, math.Inf(1))
	if th := ThresholdFor(p, 1); math.Abs(th-3) > 1e-12 {
		t.Errorf("γ=∞ threshold = %v, want U_s = 3", th)
	}
}

func TestVerdictString(t *testing.T) {
	for _, v := range []Verdict{PositiveRecurrent, Transient, Borderline} {
		if v.String() == "" {
			t.Errorf("empty name for %d", v)
		}
	}
	if Verdict(0).String() != "verdict(0)" {
		t.Error("unknown verdict must render numerically")
	}
}

func TestMarginSigns(t *testing.T) {
	stable, _ := Classify(example1Params(1, 1, 1, 2))
	unstable, _ := Classify(example1Params(3, 1, 1, 2))
	if stable.Margin <= 0 {
		t.Errorf("stable margin = %v", stable.Margin)
	}
	if unstable.Margin >= 0 {
		t.Errorf("unstable margin = %v", unstable.Margin)
	}
}
