// Package lyapunov implements the Lyapunov functions from the positive-
// recurrence proof of Theorem 1 — W of equations (11)/(12) for the
// 0 < µ < γ ≤ ∞ case and W′ of equation (43) for 0 < γ ≤ µ — together with
// exact drift evaluation QW(x) through the model's generator. Experiment
// E11 uses it to verify the Foster–Lyapunov inequality QW ≤ −ξ·n
// numerically on large states, i.e. to check the proof's central estimate
// on concrete instances.
package lyapunov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/pieceset"
)

// Errors reported by the package.
var (
	ErrBadConstants = errors.New("lyapunov: constants outside their proof ranges")
	ErrWrongBranch  = errors.New("lyapunov: constants branch does not match γ vs µ")
)

// Constants are the tunables of the Lyapunov functions. The proof requires
// R ∈ (0, 1/2), D ∈ (1, ∞) large, Beta ∈ (0, 1/2) small, Alpha ∈ (1/2, 1)
// close to one (µ < γ branch), and P > 0 satisfying condition (44)
// (γ ≤ µ branch).
type Constants struct {
	R     float64
	D     float64
	Beta  float64
	Alpha float64 // used when µ < γ
	P     float64 // used when γ ≤ µ
}

// validate checks the structural ranges common to both branches.
func (c Constants) validate() error {
	if !(c.R > 0 && c.R < 0.5) {
		return fmt.Errorf("%w: r = %v", ErrBadConstants, c.R)
	}
	if !(c.D > 1) {
		return fmt.Errorf("%w: d = %v", ErrBadConstants, c.D)
	}
	if !(c.Beta > 0 && c.Beta < 0.5) {
		return fmt.Errorf("%w: β = %v", ErrBadConstants, c.Beta)
	}
	return nil
}

// Evaluator computes W and its drift for a fixed parameter point.
type Evaluator struct {
	params    model.Params
	consts    Constants
	ratio     float64 // µ/γ, 0 when γ = ∞
	gammaLeMu bool
	full      pieceset.Set
	subsets   [][]pieceset.Set // subsets[c] = all C′ ⊆ C (E_C membership)
}

// New builds an evaluator. The branch (W vs W′) follows from the parameters:
// γ ≤ µ selects W′ and requires P > 0; µ < γ selects W and requires
// Alpha ∈ (1/2, 1).
func New(p model.Params, c Constants) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("lyapunov: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		params: p,
		consts: c,
		full:   pieceset.Full(p.K),
	}
	if !p.GammaInf() {
		e.gammaLeMu = p.Gamma <= p.Mu
		if !e.gammaLeMu {
			e.ratio = p.Mu / p.Gamma
		}
	}
	if e.gammaLeMu {
		if !(c.P > 0) {
			return nil, fmt.Errorf("%w: γ ≤ µ branch needs P > 0", ErrWrongBranch)
		}
	} else if !(c.Alpha > 0.5 && c.Alpha < 1) {
		return nil, fmt.Errorf("%w: µ < γ branch needs α ∈ (1/2,1)", ErrWrongBranch)
	}
	e.subsets = make([][]pieceset.Set, 1<<uint(p.K))
	for _, cc := range pieceset.All(p.K) {
		e.subsets[int(cc)] = pieceset.Subsets(cc)
	}
	return e, nil
}

// GammaLeMu reports which Lyapunov function the evaluator uses.
func (e *Evaluator) GammaLeMu() bool { return e.gammaLeMu }

// Phi evaluates the proof's piecewise function φ with parameters d, β:
// slope −1 on [0, 2d], a quadratic blend on (2d, 2d+1/β], zero beyond.
func (e *Evaluator) Phi(x float64) float64 {
	d, beta := e.consts.D, e.consts.Beta
	switch {
	case x < 0:
		x = 0
		fallthrough
	case x <= 2*d:
		return 2*d + 1/(2*beta) - x
	case x <= 2*d+1/beta:
		t := x - 2*d - 1/beta
		return beta / 2 * t * t
	default:
		return 0
	}
}

// EC returns E_C(x) = Σ_{C′⊆C} x_{C′}: peers that are or can become type C.
func (e *Evaluator) EC(x model.State, c pieceset.Set) float64 {
	var sum int
	for _, sub := range e.subsets[int(c)] {
		sum += x[int(sub)]
	}
	return float64(sum)
}

// HC returns the stored helping potential for type C. In the µ < γ branch
// it is H_C = (1/(1−µ/γ))·Σ_{C′⊄C}(K−|C′|+µ/γ)·x_{C′}; in the γ ≤ µ branch
// it is H′_C = Σ_{C′⊄C}(K+1−|C′|)·x_{C′}.
func (e *Evaluator) HC(x model.State, c pieceset.Set) float64 {
	var sum float64
	for idx, count := range x {
		if count == 0 {
			continue
		}
		cp := pieceset.Set(idx)
		if cp.SubsetOf(c) {
			continue
		}
		if e.gammaLeMu {
			sum += float64(count) * float64(e.params.K+1-cp.Size())
		} else {
			sum += float64(count) * (float64(e.params.K-cp.Size()) + e.ratio)
		}
	}
	if e.gammaLeMu {
		return sum
	}
	return sum / (1 - e.ratio)
}

// W evaluates the Lyapunov function at a state.
func (e *Evaluator) W(x model.State) float64 {
	var w float64
	n := float64(x.N())
	for _, c := range pieceset.All(e.params.K) {
		var t float64
		if c == e.full {
			if e.params.GammaInf() {
				continue // (12): the F term is dropped when γ = ∞
			}
			t = 0.5 * n * n
		} else {
			ec := e.EC(x, c)
			hc := e.HC(x, c)
			coef := e.consts.Alpha
			if e.gammaLeMu {
				coef = e.consts.P
			}
			t = 0.5*ec*ec + coef*ec*e.Phi(hc)
		}
		w += math.Pow(e.consts.R, float64(c.Size())) * t
	}
	return w
}

// Drift returns QW(x): the exact generator drift of W at x.
func (e *Evaluator) Drift(x model.State) (float64, error) {
	return e.params.Drift(x, e.W)
}

// DefaultConstants derives constants in the proof's prescribed ranges for
// the given parameters: d large against K and the rate ratio, β small
// enough for the Lipschitz bound β((K+µ/γ)/(1−µ/γ))² ≤ 1/α − 1, and (for
// the γ ≤ µ branch) P satisfying condition (44) with a factor-2 margin.
func DefaultConstants(p model.Params) (Constants, error) {
	if err := p.Validate(); err != nil {
		return Constants{}, fmt.Errorf("lyapunov: %w", err)
	}
	c := Constants{R: 0.05, Alpha: 0.95}
	gammaLeMu := !p.GammaInf() && p.Gamma <= p.Mu
	if gammaLeMu {
		c.D = 10 * float64(p.K+2)
		c.Beta = 0.01 / float64((p.K+1)*(p.K+1))
		p44, err := minP(p)
		if err != nil {
			return Constants{}, err
		}
		c.P = 2 * p44
		return c, nil
	}
	ratio := 0.0
	if !p.GammaInf() {
		ratio = p.Mu / p.Gamma
	}
	if ratio >= 1 {
		return Constants{}, fmt.Errorf("%w: µ ≥ γ in the µ < γ branch", ErrWrongBranch)
	}
	scale := (float64(p.K) + ratio) / (1 - ratio)
	c.D = 10 * (scale + 1)
	bound := (1/c.Alpha - 1) / (scale * scale)
	c.Beta = math.Min(0.4, bound/2)
	return c, nil
}

// minP returns the smallest P satisfying condition (44):
// λ_{E_C} < P·(U_s + λ*_{H_C}) for every proper C.
func minP(p model.Params) (float64, error) {
	ratio := p.Mu / p.Gamma
	var need float64
	for _, c := range pieceset.AllProper(p.K) {
		var lambdaE, lambdaStarH float64
		for _, cp := range p.ArrivalTypes() {
			l := p.Lambda[cp]
			if cp.SubsetOf(c) {
				lambdaE += l
			} else {
				lambdaStarH += l * (float64(p.K-cp.Size()) + ratio)
			}
		}
		denom := p.Us + lambdaStarH
		if denom <= 0 {
			return 0, fmt.Errorf("lyapunov: condition (44) unsatisfiable for C=%v (no help enters)", c)
		}
		if r := lambdaE / denom; r > need {
			need = r
		}
	}
	if need == 0 {
		need = 1
	}
	return need, nil
}

// DriftReport summarizes a drift scan over a family of states.
type DriftReport struct {
	// MaxDriftPerN is the maximum of QW(x)/n over the scanned states.
	MaxDriftPerN float64
	// AllNegative reports whether QW(x) < 0 held at every scanned state.
	AllNegative bool
	// Scanned is the number of states evaluated.
	Scanned int
}

// ScanDrift evaluates the drift on every provided state and reports the
// worst normalized drift. States with n = 0 are skipped.
func (e *Evaluator) ScanDrift(states []model.State) (DriftReport, error) {
	rep := DriftReport{MaxDriftPerN: math.Inf(-1), AllNegative: true}
	for _, x := range states {
		n := x.N()
		if n == 0 {
			continue
		}
		d, err := e.Drift(x)
		if err != nil {
			return DriftReport{}, err
		}
		rep.Scanned++
		if per := d / float64(n); per > rep.MaxDriftPerN {
			rep.MaxDriftPerN = per
		}
		if d >= 0 {
			rep.AllNegative = false
		}
	}
	return rep, nil
}

// ClassIStates builds the proof's "class I" test states: nearly all peers
// of a single type S, for each proper S, with the remainder spread over
// helper types, at each requested population size.
func ClassIStates(k int, sizes []int) []model.State {
	var out []model.State
	full := pieceset.Full(k)
	for _, s := range pieceset.AllProper(k) {
		for _, n := range sizes {
			if n < 4 {
				continue
			}
			x := model.NewState(k)
			heavy := n - 2
			x[int(s)] = heavy
			x[int(full)] = 1
			// One helper that is not ⊆ S: the complement-augmented type.
			helper := s.Complement(k)
			if helper == full {
				helper = full.Without(helper.LowestPiece())
			}
			if helper.SubsetOf(s) {
				helper = full
			}
			x[int(helper)]++
			out = append(out, x)
		}
	}
	return out
}

// ClassIIStates builds the proof's "class II" test states: two heavy groups
// of incomparable types, at each requested population size.
func ClassIIStates(k int, sizes []int) []model.State {
	var out []model.State
	if k < 2 {
		return out
	}
	a := pieceset.MustOf(1)
	b := pieceset.Full(k).Without(1)
	for _, n := range sizes {
		if n < 2 {
			continue
		}
		x := model.NewState(k)
		x[int(a)] = n / 2
		x[int(b)] = n - n/2
		out = append(out, x)
	}
	return out
}
