// Package obs is the streaming observation pipeline shared by every
// simulator and the Monte-Carlo engine. A simulator's kernel exposes a
// post-event tap (kernel.Tap); this package provides the composable
// observers that plug into it:
//
//   - Series — a fixed-memory trajectory decimator (time-ladder with
//     resolution doubling): at most `capacity` points whatever the event
//     count, and the emitted points are a pure function of the observed
//     piecewise-constant signal, never of how many events realized it.
//   - Watch — hitting-time watchers (first time a predicate over the
//     process holds: population thresholds, one-club formation, piece
//     starvation), optionally halting the run at the hit.
//   - Sojourn — a tag-based arrival→departure tracker with a Welford
//     duration summary, P² quantiles, and its own occupancy integral, so
//     Little's law L = λW can be cross-checked from one object.
//   - Quantiles — P² streaming quantiles of a probed scalar.
//
// A Set composes observers and implements kernel.Tap (and kernel.Halter);
// observers consume no randomness, so attaching a pipeline never changes
// which realization a seed produces. When a run ends the set is sealed and
// its Snapshot — named scalars, decimated series, and event marks — flows
// into the engine's structured replica records (engine.Record) and from
// there into JSONL sinks and aggregate tables, in replica order, keeping
// all observation output byte-identical across worker counts.
package obs

import (
	"repro/internal/telemetry"
)

// Probe reads one scalar from the observed process. Probes are read after
// every committed event (post-event state); they must be cheap and must
// not draw randomness.
type Probe func() float64

// Point is one decimated trajectory sample.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Observer consumes the post-event stream routed through a Set. The
// signature matches kernel.Tap, so any tap — including another Set — can
// ride in a Set.
type Observer interface {
	OnEvent(t float64, class int, population float64)
}

// Sealer is implemented by observers that finalize state when a run ends
// (the decimator flushes its ladder up to the end time).
type Sealer interface {
	Seal(t float64)
}

// Emitter is implemented by observers that contribute to the replica's
// structured snapshot.
type Emitter interface {
	EmitTo(s *Snapshot)
}

// Halter mirrors kernel.Halter: observers that can request an early stop.
type Halter interface {
	Halted() bool
}

// Snapshot is the structured outcome of an observer pipeline at the end of
// a run: named scalars, decimated series, and named event marks (hitting
// times). Scalars, series, and marks share one name namespace per replica;
// observers in one set must use distinct names.
type Snapshot struct {
	Values map[string]float64
	Series map[string][]Point
	Marks  map[string]float64
}

// setValue lazily initializes and writes a scalar.
func (s *Snapshot) setValue(name string, v float64) {
	if s.Values == nil {
		s.Values = make(map[string]float64)
	}
	s.Values[name] = v
}

// setSeries lazily initializes and writes a series.
func (s *Snapshot) setSeries(name string, pts []Point) {
	if s.Series == nil {
		s.Series = make(map[string][]Point)
	}
	s.Series[name] = pts
}

// setMark lazily initializes and writes an event mark.
func (s *Snapshot) setMark(name string, t float64) {
	if s.Marks == nil {
		s.Marks = make(map[string]float64)
	}
	s.Marks[name] = t
}

// Set composes observers into one pipeline. It implements kernel.Tap and
// kernel.Halter, so a single SetTap call attaches the whole pipeline. The
// zero value is an empty, usable set.
type Set struct {
	observers []Observer
}

// NewSet builds a pipeline over the given observers.
func NewSet(observers ...Observer) *Set {
	s := &Set{}
	for _, o := range observers {
		s.Add(o)
	}
	return s
}

// Add appends an observer (nil observers are ignored). Attachment counts
// mirror into the telemetry registry (obs_observers_total) when one is
// installed — construction-frequency accounting, never per event.
func (s *Set) Add(o Observer) {
	if o != nil {
		s.observers = append(s.observers, o)
		telemetry.Inc(telemetry.ObsObservers)
	}
}

// Empty reports whether the set holds no observers.
func (s *Set) Empty() bool { return len(s.observers) == 0 }

// OnEvent fans the event out to every observer, in attach order.
func (s *Set) OnEvent(t float64, class int, population float64) {
	for _, o := range s.observers {
		o.OnEvent(t, class, population)
	}
}

// Halted reports whether any halting observer requested a stop.
func (s *Set) Halted() bool {
	for _, o := range s.observers {
		if h, ok := o.(Halter); ok && h.Halted() {
			return true
		}
	}
	return false
}

// Seal finalizes every sealing observer at the end time. Sealing is
// idempotent.
func (s *Set) Seal(t float64) {
	for _, o := range s.observers {
		if sl, ok := o.(Sealer); ok {
			sl.Seal(t)
		}
	}
}

// Snapshot collects every emitting observer's outcome. Call after Seal.
func (s *Set) Snapshot() Snapshot {
	var snap Snapshot
	for _, o := range s.observers {
		if e, ok := o.(Emitter); ok {
			e.EmitTo(&snap)
		}
	}
	telemetry.Inc(telemetry.ObsSnapshots)
	return snap
}
