package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
	"repro/internal/sim"
	"repro/internal/store"
)

// The trajectory job: a few long replicas of K=3, λ0=3 missing-piece
// growth with p2psim's default observer set (the decimated trajectory
// series), as p2psim -k 3 -lambda0 3 -replicas 4 runs them. Each replica
// runs a fixed number of kernel events — about horizon 2000 — rather than
// to a fixed horizon, so that the seed changes the sample paths but not
// the amount of work.
const (
	trajReplicas = 4
	trajEvents   = 2_000_000 // kernel events per replica
	trajSlice    = 1.0       // simulated time per RunUntil call
	trajHorizon  = 4000.0    // end of the observers' time ladder
	trajSamples  = 40        // ladder points (spacing 100)
)

// prepareTrajectory creates the record files and the engine job. Records
// stream through a JSONL sink and a store sink; the run then scans the
// store back, re-aggregates it and exports it to JSONL.
func prepareTrajectory(e *env) (*job, error) {
	p := model.Params{K: 3, Us: 1, Mu: 1, Gamma: 2, Lambda: map[pieceset.Set]float64{pieceset.Empty: 3}}
	sys, err := core.NewSystem(p)
	if err != nil {
		return nil, err
	}
	jsonlPath := filepath.Join(e.dir, "records.jsonl")
	storePath := filepath.Join(e.dir, "records.store")
	f, err := os.Create(jsonlPath)
	if err != nil {
		return nil, err
	}
	ss, err := engine.CreateStoreSink(storePath)
	if err != nil {
		f.Close()
		return nil, err
	}
	storeW := &timedSink{Sink: ss, rec: e.rec, span: "store.write"}
	sink := &timedSink{Sink: engine.Tee(engine.NewJSONLSink(f), storeW), rec: e.rec, span: "engine.sink", inner: storeW}
	backend := &engine.SwarmBackend{
		Label:   "p2psim",
		Params:  p,
		Options: []sim.Option{sim.WithPolicy(sim.RandomUseful{})},
		Observe: func(rep int, sw *sim.Swarm) *obs.Set {
			set := obs.NewSet()
			for _, s := range sw.TraceSeries(0, trajHorizon, trajHorizon/trajSamples, sys.CriticalPiece()) {
				set.Add(s)
			}
			return set
		},
		Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
			_, id := e.rec.begin(ctx, "sim.run", false)
			var err error
			for err == nil && sw.Stats().Events < trajEvents {
				_, err = sw.RunUntil(sw.Now()+trajSlice, 0)
			}
			st := sw.Stats()
			e.rec.end(id, int64(st.Events))
			if err != nil {
				return nil, err
			}
			return engine.Sample{
				"final_t":    sw.Now(),
				"final_n":    float64(sw.N()),
				"mean_n":     sw.MeanPeers(),
				"events":     float64(st.Events),
				"arrivals":   float64(st.Arrivals),
				"departures": float64(st.Departures),
				"uploads":    float64(st.Uploads),
				"noops":      float64(st.NoOps),
			}, nil
		},
	}
	ej := engine.Job{
		Name:     "trajectory/" + p.String(),
		Backend:  &timedBackend{Backend: backend, rec: e.rec, span: "engine.replica"},
		Replicas: trajReplicas,
		Seed:     e.seed,
		Workers:  e.workers,
		Sink:     sink,
	}
	fileOpen, storeOpen := true, true
	closeFile := func() error { fileOpen = false; return f.Close() }
	closeStore := func() error { storeOpen = false; return ss.Close() }
	return &job{
		run: func(ctx context.Context) (*outcome, error) {
			runCtx, id := e.rec.begin(ctx, "engine.run", false)
			sink.parent = runCtx
			res, err := engine.Run(runCtx, ej)
			e.rec.end(id, trajReplicas)
			if err != nil {
				return nil, err
			}
			if err := closeFile(); err != nil {
				return nil, err
			}
			_, id = e.rec.begin(ctx, "store.write", false)
			err = closeStore()
			e.rec.end(id, -1)
			if err != nil {
				return nil, err
			}
			return readBack(ctx, e.rec, res, jsonlPath, storePath)
		},
		cleanup: func() {
			if fileOpen {
				f.Close()
			}
			if storeOpen {
				ss.Close()
			}
		},
	}, nil
}

// readBack scans the store back, re-aggregating it, and exports it to
// JSONL; the checks after the timed job compare the re-aggregation with
// the engine aggregate and the export with the JSONL sink's bytes.
func readBack(ctx context.Context, rec *recorder, res *engine.Result, jsonlPath, storePath string) (*outcome, error) {
	out := newOutcome()
	for i, r := range res.Records {
		ev := r.Values["events"]
		out.op(ev > 0 && len(r.Series["n"]) > 0, "trajectory replica %d: %v events, %d trajectory points", i, ev, len(r.Series["n"]))
		out.events += ev
	}
	_, id := rec.begin(ctx, "store.scan", false)
	rd, err := store.Open(storePath)
	var sums map[string]*dist.Summary
	if err == nil {
		sums, err = reaggregate(rd)
	}
	rec.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("trajectory: scan %s: %w", storePath, err)
	}
	defer rd.Close()

	_, id = rec.begin(ctx, "store.export", false)
	var export bytes.Buffer
	err = engine.StoreToJSONL(&export, rd)
	rec.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("trajectory: export: %w", err)
	}
	rows := float64(rd.NumRows())
	out.add("sim.events", out.events)
	out.add("engine.replicas", float64(len(res.Records)))
	out.add("store.rows_written", rows)
	out.add("store.rows_scanned", rows)
	out.later(func() error {
		out.op(sameAggregate(res, sums), "trajectory: re-aggregated store differs from the engine aggregate")
		jsonl, err := os.ReadFile(jsonlPath)
		if err != nil {
			return err
		}
		out.op(bytes.Equal(export.Bytes(), jsonl), "trajectory: store export (%d bytes) differs from the JSONL sink (%d bytes)", export.Len(), len(jsonl))
		out.digest.Write(jsonl)
		size, err := fileSize(storePath)
		out.add("store.bytes", float64(size))
		return err
	})
	return out, nil
}

// reaggregate folds every replica scalar and mark in the store into one
// summary per name, in row order, which is replica order.
func reaggregate(rd *store.Reader) (map[string]*dist.Summary, error) {
	sch := rd.Schema()
	kind, field, name, v := sch.Col("kind"), sch.Col("field"), sch.Col("name"), sch.Col("v")
	sums := map[string]*dist.Summary{}
	err := rd.Scan(func(_ int64, vals []store.Value) error {
		if vals[kind].String() != "replica" {
			return nil
		}
		if f := vals[field].String(); f != "value" && f != "mark" {
			return nil
		}
		n := vals[name].String()
		s, ok := sums[n]
		if !ok {
			s = &dist.Summary{}
			sums[n] = s
		}
		s.Add(vals[v].Float64())
		return nil
	})
	return sums, err
}

// sameAggregate reports whether the re-aggregated summaries equal the
// engine's, key for key and bit for bit.
func sameAggregate(res *engine.Result, sums map[string]*dist.Summary) bool {
	keys := res.Keys()
	if len(keys) != len(sums) {
		return false
	}
	got := make([]string, 0, len(sums))
	for k := range sums {
		got = append(got, k)
	}
	sort.Strings(got)
	for i, k := range keys {
		if got[i] != k {
			return false
		}
		a, b := res.Summary(k), sums[k]
		if a.N() != b.N() || !sameBits(a.Mean(), b.Mean()) || !sameBits(a.Min(), b.Min()) ||
			!sameBits(a.Max(), b.Max()) || (a.N() > 1 && !sameBits(a.Std(), b.Std())) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
