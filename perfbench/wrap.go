package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// latencies collects per-call durations in seconds from concurrent
// callers.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.xs = append(l.xs, d.Seconds())
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs...)
}

// timedEvaluator wraps a sweep.Evaluator. Name and Fingerprint pass
// through, so cache keys, cell streams and the map are unchanged. Each
// Evaluate call the engine makes is one span on a worker lane, named for
// the layer that does the cell's work, and its latency is always kept:
// cell latency is an end-to-end metric.
type timedEvaluator struct {
	sweep.Evaluator
	rec  *recorder
	span string
	lat  *latencies
}

// Evaluate implements sweep.Evaluator.
func (e *timedEvaluator) Evaluate(ctx context.Context, pt sweep.Point, r *rng.RNG) (sweep.Cell, error) {
	ctx, id := e.rec.begin(ctx, e.span, true)
	t0 := time.Now()
	cell, err := e.Evaluator.Evaluate(ctx, pt, r)
	e.lat.add(time.Since(t0))
	e.rec.end(id, 0)
	return cell, err
}

// timedBackend wraps an engine.Backend: each RunReplica callback is one
// span on a worker lane, with the replica index as its argument.
type timedBackend struct {
	engine.Backend
	rec  *recorder
	span string
}

// RunReplica implements engine.Backend.
func (b *timedBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (engine.Record, error) {
	ctx, id := b.rec.begin(ctx, b.span, true)
	rec, err := b.Backend.RunReplica(ctx, rep, r)
	b.rec.end(id, int64(rep))
	return rec, err
}

// timedSink wraps an engine.Sink. The engine calls sinks on the goroutine
// that called engine.Run, after the replicas finish, so each write is a
// span under parent, the context of the enclosing span on the main goroutine; the
// workload sets parent before it starts the job. When the wrapped sink fans out to
// another timedSink (inner), each write becomes inner's parent.
type timedSink struct {
	engine.Sink
	rec    *recorder
	span   string
	parent context.Context
	inner  *timedSink
}

// WriteReplica implements engine.Sink.
func (s *timedSink) WriteReplica(rec engine.ReplicaRecord) error {
	id := s.begin()
	err := s.Sink.WriteReplica(rec)
	s.rec.end(id, int64(rec.Replica))
	return err
}

// WriteAggregate implements engine.Sink.
func (s *timedSink) WriteAggregate(rec engine.AggregateRecord) error {
	id := s.begin()
	err := s.Sink.WriteAggregate(rec)
	s.rec.end(id, -1)
	return err
}

func (s *timedSink) begin() int {
	parent := s.parent
	if parent == nil {
		parent = context.Background()
	}
	ctx, id := s.rec.begin(parent, s.span, false)
	if s.inner != nil {
		s.inner.parent = ctx
	}
	return id
}
