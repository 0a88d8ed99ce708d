package hybrid

import "repro/internal/sim"

// watch is a halting condition checked in every regime (the fluid regime
// refuses to start while any is armed, so in practice watches only ever
// fire from the exact and leap regimes, where fluctuations are real).
type watch struct {
	piece  int
	target int
}

// WatchOneClub arms a halting watch: RunUntil returns StopObserver as soon
// as the one-club of the given piece reaches target peers. Hitting-time
// experiments arm one watch per replica; watches consume no randomness, so
// arming one never changes the realization a seed produces (the trajectory
// is merely truncated).
//
// Test oracle: the one-club hitting times TestHittingTimeAgreement compares
// between the hybrid and the exact kernel.
func (h *Swarm) WatchOneClub(piece, target int) {
	h.watches = append(h.watches, watch{piece: piece, target: target})
}

// watchFired reports whether any armed watch holds at the dense state.
func (h *Swarm) watchFired() bool {
	for _, w := range h.watches {
		if h.OneClub(w.piece) >= w.target {
			return true
		}
	}
	return false
}

// watchFiredSim is watchFired against a live exact sub-simulator (whose
// state is authoritative while the exact regime runs).
func (h *Swarm) watchFiredSim(sw *sim.Swarm) bool {
	for _, w := range h.watches {
		if sw.OneClub(w.piece) >= w.target {
			return true
		}
	}
	return false
}
