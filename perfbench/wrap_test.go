package main

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/sweep"
)

var errStub = errors.New("stub failure")

type stubEvaluator struct {
	cell sweep.Cell
	err  error
}

func (stubEvaluator) Name() string        { return "stub" }
func (stubEvaluator) Fingerprint() string { return "v7" }
func (s stubEvaluator) Evaluate(ctx context.Context, pt sweep.Point, r *rng.RNG) (sweep.Cell, error) {
	return s.cell, s.err
}

func TestTimedEvaluatorPassesThrough(t *testing.T) {
	for _, rec := range []*recorder{nil, newRecorder()} {
		want := sweep.Cell{Class: "grows", Value: 3.5, Values: map[string]float64{"final_n": 400}}
		lat := &latencies{}
		e := &timedEvaluator{Evaluator: stubEvaluator{cell: want}, rec: rec, span: "sim.cell", lat: lat}
		got, err := e.Evaluate(context.Background(), sweep.Point{}, rng.New(1))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Evaluate = %+v, %v; want %+v, nil", got, err, want)
		}
		if e.Name() != "stub" || e.Fingerprint() != "v7" {
			t.Errorf("identity = %q/%q, want stub/v7", e.Name(), e.Fingerprint())
		}
		e.Evaluator = stubEvaluator{err: errStub}
		if _, err := e.Evaluate(context.Background(), sweep.Point{}, rng.New(1)); err != errStub {
			t.Errorf("error = %v, want the evaluator's own", err)
		}
		if n := len(lat.values()); n != 2 {
			t.Errorf("%d latencies, want 2", n)
		}
	}
}

type stubBackend struct {
	rec engine.Record
	err error
}

func (stubBackend) Name() string { return "stub" }
func (b stubBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (engine.Record, error) {
	return b.rec, b.err
}

func TestTimedBackendPassesThrough(t *testing.T) {
	want := engine.Record{Values: engine.Sample{"events": 12}, Marks: map[string]float64{"onset": 3}}
	b := &timedBackend{Backend: stubBackend{rec: want}, rec: newRecorder(), span: "engine.replica"}
	got, err := b.RunReplica(context.Background(), 2, rng.New(1))
	if err != nil || !reflect.DeepEqual(got, want) || b.Name() != "stub" {
		t.Errorf("RunReplica = %+v, %v (name %q)", got, err, b.Name())
	}
	b.Backend = stubBackend{err: errStub}
	if _, err := b.RunReplica(context.Background(), 0, rng.New(1)); err != errStub {
		t.Errorf("error = %v, want the backend's own", err)
	}
}

type failingSink struct{}

func (failingSink) WriteReplica(engine.ReplicaRecord) error     { return errStub }
func (failingSink) WriteAggregate(engine.AggregateRecord) error { return errStub }

// TestTimedSinkPassesThrough checks records reach the wrapped sink
// unchanged — the same bytes as an unwrapped sink — and errors come back.
func TestTimedSinkPassesThrough(t *testing.T) {
	job := func(sink engine.Sink) engine.Job {
		return engine.Job{Name: "t", Replicas: 3, Seed: 5, Workers: 2, Sink: sink, Backend: engine.Func{
			Fn: func(ctx context.Context, rep int, r *rng.RNG) (engine.Sample, error) {
				return engine.Sample{"x": r.Float64()}, nil
			},
		}}
	}
	var plain, wrapped bytes.Buffer
	if _, err := engine.Run(context.Background(), job(engine.NewJSONLSink(&plain))); err != nil {
		t.Fatal(err)
	}
	inner := &timedSink{Sink: engine.NewJSONLSink(&wrapped), rec: newRecorder(), span: "store.write"}
	outer := &timedSink{Sink: inner, rec: inner.rec, span: "engine.sink", inner: inner}
	if _, err := engine.Run(context.Background(), job(outer)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), wrapped.Bytes()) {
		t.Errorf("wrapped sink wrote\n%s\nwant\n%s", wrapped.Bytes(), plain.Bytes())
	}
	// Every inner write nests inside an outer one.
	for _, s := range inner.rec.closed() {
		if s.Name == "store.write" && inner.rec.closed()[s.Parent].Name != "engine.sink" {
			t.Errorf("store.write span under %q", inner.rec.closed()[s.Parent].Name)
		}
	}
	_, err := engine.Run(context.Background(), job(&timedSink{Sink: failingSink{}, rec: newRecorder(), span: "engine.sink"}))
	if !errors.Is(err, errStub) {
		t.Errorf("error = %v, want the sink's own", err)
	}
}

// TestDigestIndependentOfTracing runs each workload's job untraced and
// traced, at one and two engine workers: the digest of the answers must
// not change.
func TestDigestIndependentOfTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trajectory and phasemap jobs")
	}
	for _, w := range workloads() {
		if w.name == "solve" {
			continue // single-threaded, minutes under -race
		}
		var ref string
		for _, c := range []struct {
			workers int
			rec     *recorder
		}{{1, nil}, {1, newRecorder()}, {2, newRecorder()}} {
			if !w.multi && c.workers != 1 {
				continue
			}
			b := &bench{w: w, seed: 3, work: t.TempDir()}
			r, err := b.once(c.workers, c.rec, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.out.failed != 0 {
				t.Errorf("%s: %d failed checks: %v", w.name, r.out.failed, r.out.problems)
			}
			if ref == "" {
				ref = r.out.sum()
			} else if d := r.out.sum(); d != ref {
				t.Errorf("%s at %d workers, traced %v: digest %s, want %s", w.name, c.workers, c.rec != nil, d, ref)
			}
		}
	}
}
