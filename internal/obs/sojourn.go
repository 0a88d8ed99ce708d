package obs

import (
	"fmt"

	"repro/internal/dist"
)

// Sojourn tracks per-entity time in system by pairing tagged arrivals with
// departures: the process calls Arrive(tag, t) when an entity enters and
// Depart(tag, t) when it leaves, and the tracker accumulates a Welford
// summary and P² quantiles of the durations, the arrival count, and its
// own occupancy integral (the open-tag count is the population restricted
// to tracked entities). That makes it self-sufficient for Little's-law
// cross-checks: L (time-averaged occupancy), λ (arrival rate), and W (mean
// sojourn) all come from one object observing one stream.
//
// Sojourn is fed by the process, not by the kernel event stream — arrivals
// and departures are semantic process events, not kernel event classes —
// so its OnEvent is a no-op; it rides in a Set for sealing and emission.
// Two tagging modes share the statistics. Arrive/Depart pair caller-chosen
// tags through a map — flexible, but each arrival allocates. Admit/Release
// instead hand out dense slab tags (generation<<32 | slot) backed by flat
// arrays with a LIFO free list, so a simulator that tracks every peer stays
// allocation-free once the slab has grown to the peak population. The modes
// may be mixed on one tracker; only the tag bookkeeping differs.
type Sojourn struct {
	name     string
	open     map[uint64]float64 // caller tag → arrival time (Arrive/Depart mode)
	slabTime []float64          // slot → arrival time (Admit/Release mode)
	slabGen  []uint32           // slot → current generation; bumped on release
	slabFree []int              // LIFO free slots
	slabOpen int                // live slab entries
	w        dist.Summary       // durations of departed entities
	median   *dist.P2
	p90      *dist.P2
	occ      dist.TimeAverage
	arrivals int
	started  bool
	t0, t1   float64 // observation window
}

// NewSojourn builds a tracker. The name prefixes its emitted scalars.
func NewSojourn(name string) *Sojourn {
	return &Sojourn{
		name:   name,
		open:   make(map[uint64]float64),
		median: dist.NewP2(0.5),
		p90:    dist.NewP2(0.9),
	}
}

// Name returns the tracker name.
func (s *Sojourn) Name() string { return s.name }

// OnEvent implements Observer as a no-op: the tracker's inputs are the
// process's Arrive/Depart calls, not kernel events.
func (s *Sojourn) OnEvent(float64, int, float64) {}

func (s *Sojourn) observeWindow(t float64) {
	if !s.started {
		s.started = true
		s.t0 = t
	}
	s.t1 = t
	s.occ.Observe(t, float64(len(s.open)+s.slabOpen))
}

// Arrive records that the entity with the given tag entered at time t.
// Reusing a live tag is an invariant violation and panics.
//
// Test oracle: with Depart, the map-tagged reference that the slab tags of
// Admit/Release must match statistic for statistic.
func (s *Sojourn) Arrive(tag uint64, t float64) {
	if _, live := s.open[tag]; live {
		panic(fmt.Sprintf("obs: sojourn %q tag %d arrived twice", s.name, tag))
	}
	s.open[tag] = t
	s.arrivals++
	s.observeWindow(t)
}

// Depart records that the entity left at time t and folds its duration
// into the statistics. Departing an unknown tag panics.
//
// Test oracle: see Arrive.
func (s *Sojourn) Depart(tag uint64, t float64) {
	at, live := s.open[tag]
	if !live {
		panic(fmt.Sprintf("obs: sojourn %q tag %d departed without arriving", s.name, tag))
	}
	delete(s.open, tag)
	d := t - at
	s.w.Add(d)
	s.median.Observe(d)
	s.p90.Observe(d)
	s.observeWindow(t)
}

// Admit records an arrival at time t and returns a tracker-issued slab tag
// for the entity, the allocation-free alternative to Arrive: slots are flat
// array indices reused LIFO, so beyond the peak population the call never
// touches the heap. The tag must later be passed to Release, not Depart.
func (s *Sojourn) Admit(t float64) uint64 {
	var slot int
	if n := len(s.slabFree); n > 0 {
		slot = s.slabFree[n-1]
		s.slabFree = s.slabFree[:n-1]
	} else {
		slot = len(s.slabTime)
		s.slabTime = append(s.slabTime, 0)
		s.slabGen = append(s.slabGen, 0)
	}
	s.slabTime[slot] = t
	s.slabOpen++
	s.arrivals++
	s.observeWindow(t)
	return uint64(s.slabGen[slot])<<32 | uint64(slot)
}

// Release records that the entity tagged by Admit left at time t and folds
// its duration into the statistics. The slot's generation is retired, so a
// stale or doubled Release panics just as Depart does for unknown tags.
func (s *Sojourn) Release(tag uint64, t float64) {
	slot := int(tag & (1<<32 - 1))
	gen := uint32(tag >> 32)
	if slot >= len(s.slabTime) || s.slabGen[slot] != gen {
		panic(fmt.Sprintf("obs: sojourn %q released stale slab tag %d", s.name, tag))
	}
	s.slabGen[slot]++
	s.slabFree = append(s.slabFree, slot)
	s.slabOpen--
	d := t - s.slabTime[slot]
	s.w.Add(d)
	s.median.Observe(d)
	s.p90.Observe(d)
	s.observeWindow(t)
}

// Seal implements Sealer: close the occupancy integral at the end time.
func (s *Sojourn) Seal(t float64) { s.observeWindow(t) }

// Arrivals returns the number of arrivals observed.
func (s *Sojourn) Arrivals() int { return s.arrivals }

// Open returns the number of entities currently in the system, across both
// tagging modes.
func (s *Sojourn) Open() int { return len(s.open) + s.slabOpen }

// Durations returns the Welford summary of departed-entity sojourns — the
// W of Little's law (its Mean) plus spread.
func (s *Sojourn) Durations() *dist.Summary { return &s.w }

// Median returns the streaming P² median sojourn time.
func (s *Sojourn) Median() float64 { return s.median.Value() }

// P90 returns the streaming P² 90th-percentile sojourn time.
func (s *Sojourn) P90() float64 { return s.p90.Value() }

// L returns the time-averaged tracked occupancy over the observation
// window — the L of Little's law.
func (s *Sojourn) L() float64 { return s.occ.Value() }

// Lambda returns the empirical arrival rate over the observation window
// (0 before any time has elapsed).
func (s *Sojourn) Lambda() float64 {
	if span := s.t1 - s.t0; span > 0 {
		return float64(s.arrivals) / span
	}
	return 0
}

// EmitTo implements Emitter: the tracker's headline scalars, prefixed with
// its name.
func (s *Sojourn) EmitTo(snap *Snapshot) {
	if s.w.N() == 0 {
		return
	}
	snap.setValue(s.name+".w_mean", s.w.Mean())
	snap.setValue(s.name+".w_p50", s.Median())
	snap.setValue(s.name+".w_p90", s.P90())
	snap.setValue(s.name+".l", s.L())
	snap.setValue(s.name+".lambda", s.Lambda())
	snap.setValue(s.name+".departed", float64(s.w.N()))
}
