package dist

import (
	"fmt"
	"math"
	"sort"
)

// P2 estimates one quantile of a stream in O(1) memory using the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the minimum,
// the target quantile, the two midpoints, and the maximum; marker heights
// are nudged by a piecewise-parabolic update as observations arrive. Until
// five observations have been seen the estimator is exact (it sorts the
// buffer). The update is deterministic in the observation order, so feeding
// replica outcomes in replica order keeps experiment tables byte-identical
// across worker counts. The zero value is not usable; construct with NewP2.
type P2 struct {
	p     float64
	n     int
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired positions
	dwant [5]float64 // desired-position increments per observation
}

// NewP2 builds an estimator for the p-quantile, 0 < p < 1 (p = 0.5 is the
// median). It panics on a p outside the open unit interval.
func NewP2(p float64) *P2 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: P2 quantile p=%v outside (0,1)", p))
	}
	e := &P2{p: p}
	e.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// P returns the target quantile.
func (e *P2) P() float64 { return e.p }

// N returns the number of observations.
func (e *P2) N() int { return e.n }

// Observe incorporates one observation.
func (e *P2) Observe(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
				e.want[i] = 1 + 4*e.dwant[i]
			}
		}
		return
	}
	e.n++
	// Find the marker cell containing x, extending the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.dwant[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := e.parabolic(i, s)
			if e.q[i-1] < h && h < e.q[i+1] {
				e.q[i] = h
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d ∈ {−1, +1}.
func (e *P2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots.
func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it is the exact sample quantile (nearest-rank with linear
// interpolation); with none it returns NaN — represented as 0 by callers
// that must serialize, so check N first.
func (e *P2) Value() float64 {
	switch {
	case e.n == 0:
		return math.NaN()
	case e.n < 5:
		buf := make([]float64, e.n)
		copy(buf, e.q[:e.n])
		sort.Float64s(buf)
		return exactQuantile(buf, e.p)
	default:
		return e.q[2]
	}
}

// exactQuantile returns the p-quantile of a sorted sample by linear
// interpolation between closest ranks (the "R-7" convention). Tests use it
// as the ground truth for the P² tolerance checks.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := p * float64(len(sorted)-1)
	lo := int(h)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// ExactQuantile returns the p-quantile of the sample (which it sorts in
// place) by the same convention P2 converges to.
//
// Test oracle: the exact quantile the P² estimator is checked against.
func ExactQuantile(sample []float64, p float64) float64 {
	sort.Float64s(sample)
	return exactQuantile(sample, p)
}
