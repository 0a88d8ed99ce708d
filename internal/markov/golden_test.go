package markov

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
)

// chainDigest hashes everything the solver reads from a built chain: the
// states in index order, the out-edge CSR arrays, and the bits of every
// rate. Equal digests mean bit-identical solves.
func chainDigest(c *Chain) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(c.states)))
	for _, x := range c.states {
		for _, v := range x {
			put(uint64(v))
		}
	}
	for _, v := range c.outStart {
		put(uint64(v))
	}
	for _, v := range c.outTo {
		put(uint64(v))
	}
	for _, q := range c.outQ {
		put(math.Float64bits(q))
	}
	for _, q := range c.outRate {
		put(math.Float64bits(q))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the built chains of the solve workload (E10's three
// validation chains, E14's margin 1 and 0.5 cells), a γ = ∞ K=2 chain and
// two K=3 chains to fixed digests: the BFS state order, the per-state
// transition order and every rate's bits decide π, E[N] and the iteration
// counts to the last digit E10 and E14 print.
func TestBuildGolden(t *testing.T) {
	k2 := model.Params{K: 2, Us: 1, Mu: 1, Gamma: 2, Lambda: map[pieceset.Set]float64{
		pieceset.Empty: 0.4, pieceset.MustOf(1): 0.2,
	}}
	k2inf := model.Params{K: 2, Us: 1, Mu: 1, Gamma: math.Inf(1), Lambda: map[pieceset.Set]float64{
		pieceset.Empty: 0.5,
	}}
	k3 := model.Params{K: 3, Us: 0.7, Mu: 1.3, Gamma: 1.5, Lambda: map[pieceset.Set]float64{
		pieceset.Empty: 0.5, pieceset.MustOf(2): 0.3, pieceset.MustOf(1, 3): 0.1,
	}}
	// Only supersets of {2} or {1,3} other than F can be occupied.
	k3inf := model.Params{K: 3, Us: 1, Mu: 0.8, Gamma: math.Inf(1), Lambda: map[pieceset.Set]float64{
		pieceset.MustOf(2): 0.6, pieceset.MustOf(1, 3): 0.2,
	}}
	for _, tc := range []struct {
		name   string
		p      model.Params
		nmax   int
		states int
		digest string
	}{
		{"E10 K=1 λ0=0.8", k1Params(0.8, 1, 1, 2), 60,
			1891, "25d60a2863077dfdd43d36b958de3ef7e2102f265bc5b41280a806c9bf18ef01"},
		{"E10 K=1 λ0=1.2", k1Params(1.2, 1, 1, 2), 70,
			2556, "4476fcfe78e972edb86df28d6a962496f38beba921c079ea363f9e809e8f3d82"},
		{"E10 K=2", k2, 30,
			46376, "bf92fd8af3749f054cd8b8401f6a2f657d6040153ab2063e4b330e8b2cca0738"},
		{"E14 margin 1", k1Params(1, 1, 1, 2), 70,
			2556, "bd4b13c7976233e0ca4893b3600dad81eb6a8b69439eca6d4efb6143ff7c0b02"},
		{"E14 margin 0.5", k1Params(1.5, 1, 1, 2), 100,
			5151, "44939cf2fb0c98dbda80da9a51e4349a12a1dea097572d6e7a7bb05606c5eaed"},
		{"K=2 γ=∞", k2inf, 12,
			455, "f7aa7e3daaabe8aa56142fd5d4807b5651e81b76d4337d9103dd7688148f04a5"},
		{"K=3", k3, 7,
			6435, "73f6278e44d7be726deba4028cdba8c5dd481cac93fd77db1b8ad73ed52436eb"},
		{"K=3 γ=∞ sparse support", k3inf, 12,
			1820, "aaa7587e383e40b2480b69a5daded78054d5e916a839eccb73274bd6df65b5e5"},
	} {
		c, err := Build(tc.p, tc.nmax)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := c.NumStates(); got != tc.states {
			t.Errorf("%s: %d states, want %d", tc.name, got, tc.states)
		}
		if got := chainDigest(c); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
