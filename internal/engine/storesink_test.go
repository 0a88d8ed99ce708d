package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/store"
)

// randomRecords draws a deterministic stream of replica records followed
// by an aggregate, exercising every JSON shape the sinks must agree on:
// nil vs empty Values, nil vs empty series maps, nil vs empty point
// slices, and conditional marks.
func randomRecords(r *rng.RNG, n int) ([]ReplicaRecord, AggregateRecord) {
	recs := make([]ReplicaRecord, n)
	metrics := []string{"final_n", "occupancy", "onset"}
	for i := range recs {
		rec := ReplicaRecord{Kind: "replica", Job: "prop", Backend: "func", Replica: i}
		if r.Intn(8) != 0 { // occasionally a nil Values map
			rec.Values = Sample{}
			for _, m := range metrics[:1+r.Intn(len(metrics))] {
				rec.Values[m] = r.Float64()*100 - 50
			}
		}
		switch r.Intn(4) {
		case 0: // no series
		case 1: // nil slice under a name
			rec.Series = map[string][]obs.Point{"pop": nil}
		case 2: // empty non-nil slice
			rec.Series = map[string][]obs.Point{"pop": {}}
		default:
			pts := make([]obs.Point, 1+r.Intn(5))
			for j := range pts {
				pts[j] = obs.Point{T: float64(j) * 0.5, V: r.Float64() * 10}
			}
			rec.Series = map[string][]obs.Point{"pop": pts, "rate": {{T: 0, V: r.Float64()}}}
		}
		if r.Intn(3) == 0 {
			rec.Marks = map[string]float64{"t_one_club": r.Float64() * 20}
		}
		recs[i] = rec
	}
	agg := AggregateRecord{
		Kind: "aggregate", Job: "prop", Backend: "func", Replicas: n,
		Metrics: map[string]MetricAggregate{
			"final_n":    {N: n, Mean: 1.25, Std: 0.5, CI95: 0.1, Min: -3, Max: 42},
			"t_one_club": {N: n / 3, Mean: 7.5, Min: 1, Max: 19},
		},
	}
	return recs, agg
}

// TestStoreSinkRoundTripsJSONL is the satellite property test: random
// record batches written to both sinks must round-trip store→JSONL
// byte-identically with the direct JSONL stream.
func TestStoreSinkRoundTripsJSONL(t *testing.T) {
	r := rng.New(123)
	dir := t.TempDir()
	for trial := 0; trial < 25; trial++ {
		recs, agg := randomRecords(r, 1+r.Intn(12))
		var jsonl bytes.Buffer
		js := NewJSONLSink(&jsonl)
		path := filepath.Join(dir, fmt.Sprintf("trial%d.store", trial))
		ss, err := CreateStoreSink(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := js.WriteReplica(rec); err != nil {
				t.Fatal(err)
			}
			if err := ss.WriteReplica(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := js.WriteAggregate(agg); err != nil {
			t.Fatal(err)
		}
		if err := ss.WriteAggregate(agg); err != nil {
			t.Fatal(err)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}

		sr, err := store.Open(path)
		if err != nil {
			t.Fatalf("trial %d: reopen store: %v", trial, err)
		}
		var back bytes.Buffer
		err = StoreToJSONL(&back, sr)
		sr.Close()
		if err != nil {
			t.Fatalf("trial %d: StoreToJSONL: %v", trial, err)
		}
		if !bytes.Equal(back.Bytes(), jsonl.Bytes()) {
			t.Fatalf("trial %d: store round trip differs from JSONL\nstore: %s\njsonl: %s",
				trial, back.Bytes(), jsonl.Bytes())
		}
	}
}

// TestStoreSinkDeterministicAcrossWorkers extends the JSONL determinism
// contract to the store: one job, any worker count, identical file bytes.
func TestStoreSinkDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	render := func(workers int) []byte {
		path := filepath.Join(dir, fmt.Sprintf("w%d.store", workers))
		ss, err := CreateStoreSink(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(context.Background(), Job{
			Name: "det", Replicas: 32, Seed: 9, Workers: workers, Sink: ss,
			Backend: Func{Label: "det", Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
				s := Sample{"x": r.Float64(), "y": r.Exp(1)}
				if rep%3 == 0 {
					s["cond"] = float64(rep)
				}
				return s, nil
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); !bytes.Equal(got, base) {
			t.Fatalf("store bytes differ between workers=1 and workers=%d", w)
		}
	}
}

// TestStoreAggMatchesWelford is the store→agg half of the property
// satellite: re-aggregating the stored replica scalars and marks with
// internal/dist Welford summaries must reproduce the stored aggregate
// rows exactly (bit-equal means and spreads), because both fold the same
// values in the same replica-then-sorted-key order.
func TestStoreAggMatchesWelford(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agg.store")
	ss, err := CreateStoreSink(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Job{
		Name: "agg", Replicas: 50, Seed: 3, Workers: 4, Sink: ss,
		Backend: Func{Label: "agg", Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			s := Sample{"x": r.Float64()*10 - 5, "y": r.Exp(0.5)}
			if r.Bernoulli(0.4) {
				s["onset"] = r.Float64() * 100
			}
			return s, nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	fieldCol, nameCol, vCol := sr.Schema().Col("field"), sr.Schema().Col("name"), sr.Schema().Col("v")

	// Re-aggregate the replica rows in row order — the same order the
	// engine folded them (replica order, sorted keys within a record).
	sums := map[string]*dist.Summary{}
	stored := map[string]map[string]float64{} // metric -> stat -> value
	err = sr.Scan(func(i int64, vals []store.Value) error {
		field, name, v := vals[fieldCol].String(), vals[nameCol].String(), vals[vCol].Float64()
		switch field {
		case fieldValue, fieldMark:
			s, ok := sums[name]
			if !ok {
				s = &dist.Summary{}
				sums[name] = s
			}
			s.Add(v)
		default:
			if stat, ok := strings.CutPrefix(field, aggPrefix); ok {
				if stored[name] == nil {
					stored[name] = map[string]float64{}
				}
				stored[name][stat] = v
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) == 0 || len(sums) != len(stored) {
		t.Fatalf("metrics: stored %d, recomputed %d", len(stored), len(sums))
	}
	for name, s := range sums {
		got := stored[name]
		check := func(stat string, want float64) {
			if math.Float64bits(got[stat]) != math.Float64bits(want) {
				t.Errorf("metric %q %s: stored %v, Welford %v", name, stat, got[stat], want)
			}
		}
		check("n", float64(s.N()))
		check("mean", s.Mean())
		check("min", s.Min())
		check("max", s.Max())
		if s.N() >= 2 {
			check("std", s.Std())
			check("ci95", s.CI95())
		}
	}
}

// TestTeeSink: both sinks see every record, in order.
func TestTeeSink(t *testing.T) {
	var a, b bytes.Buffer
	sink := Tee(NewJSONLSink(&a), NewJSONLSink(&b))
	recs, agg := randomRecords(rng.New(4), 5)
	for _, rec := range recs {
		if err := sink.WriteReplica(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.WriteAggregate(agg); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("tee streams differ (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestStoreToJSONLRejectsForeignStore: a store with a different app tag
// must be refused, not misdecoded.
func TestStoreToJSONLRejectsForeignStore(t *testing.T) {
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, store.Schema{App: "other/1", Cols: []store.Column{{Name: "x", Type: store.Float64}}}, store.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := store.NewReaderOptions(bytes.NewReader(buf.Bytes()), int64(buf.Len()), store.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := StoreToJSONL(&buf, sr); err == nil {
		t.Fatal("foreign store accepted")
	} else if want := fmt.Sprintf("%q", "other/1"); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %v does not name the foreign app", err)
	}
}
