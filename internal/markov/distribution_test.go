package markov

import (
	"errors"
	"math"
	"testing"
)

func solved(t *testing.T) (*Chain, *StationaryResult) {
	t.Helper()
	c, err := Build(k1Params(0.8, 1, 1, 2), 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

func TestOccupancyDistribution(t *testing.T) {
	c, res := solved(t)
	dist, err := c.OccupancyDistribution(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != c.NMax()+1 {
		t.Fatalf("len = %d", len(dist))
	}
	var sum, mean float64
	for n, p := range dist {
		if p < -1e-15 {
			t.Fatalf("negative mass at N=%d", n)
		}
		sum += p
		mean += float64(n) * p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("masses sum to %v", sum)
	}
	if math.Abs(mean-res.MeanN) > 1e-9 {
		t.Errorf("distribution mean %v vs MeanN %v", mean, res.MeanN)
	}
}

func TestOccupancyQuantile(t *testing.T) {
	c, res := solved(t)
	median, err := c.OccupancyQuantile(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p99, err := c.OccupancyQuantile(res, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if median > p99 {
		t.Errorf("median %d above p99 %d", median, p99)
	}
	q0, err := c.OccupancyQuantile(res, -1) // clamps to 0
	if err != nil {
		t.Fatal(err)
	}
	if q0 != 0 && res.Pi[0] > 0 {
		// quantile 0 returns the first n with positive cumulative mass
		t.Logf("q0 = %d", q0)
	}
	qMax, err := c.OccupancyQuantile(res, 2) // clamps to 1
	if err != nil {
		t.Fatal(err)
	}
	if qMax > c.NMax() {
		t.Errorf("q1 = %d beyond NMax", qMax)
	}
}

// TestStationarityResidual is the direct global-balance certificate: πQ ≈ 0.
// The solver's own Residual is that certificate at exit, below the default
// tolerance 1e-12.
func TestStationarityResidual(t *testing.T) {
	c, res := solved(t)
	r, err := c.StationarityResidual(res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-12 {
		t.Errorf("Residual = %v, above the default tolerance 1e-12", res.Residual)
	}
	if math.Abs(res.Residual-r) > 1e-15 {
		t.Errorf("Residual = %v, StationarityResidual = %v", res.Residual, r)
	}
}

// TestStationarityResidualDetectsWrongPi: a perturbed distribution must
// show a visible residual — the certificate is not vacuous.
func TestStationarityResidualDetectsWrongPi(t *testing.T) {
	c, res := solved(t)
	bad := &StationaryResult{Pi: make([]float64, len(res.Pi))}
	copy(bad.Pi, res.Pi)
	bad.Pi[0] += 0.2
	bad.Pi[1] -= 0.2
	r, err := c.StationarityResidual(bad)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1e-3 {
		t.Errorf("perturbed residual %v suspiciously small", r)
	}
}

func TestDistributionErrors(t *testing.T) {
	c, _ := solved(t)
	if _, err := c.OccupancyDistribution(nil); !errors.Is(err, ErrBadResult) {
		t.Error("nil result accepted")
	}
	if _, err := c.OccupancyDistribution(&StationaryResult{Pi: []float64{1}}); !errors.Is(err, ErrBadResult) {
		t.Error("mismatched result accepted")
	}
	if _, err := c.StationarityResidual(nil); !errors.Is(err, ErrBadResult) {
		t.Error("nil result accepted by residual")
	}
	if _, err := c.OccupancyQuantile(&StationaryResult{Pi: []float64{1}}, 0.5); !errors.Is(err, ErrBadResult) {
		t.Error("mismatched result accepted by quantile")
	}
}
