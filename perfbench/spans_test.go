package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sp builds a closed span for fold tests.
func sp(id, parent, lane int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Lane: lane, Name: name, Start: start, End: end}
}

func checkFold(t *testing.T, spans []span, wantSelf map[string]float64, wantUn float64) {
	t.Helper()
	self, un := selfTimes(spans, 0)
	for _, l := range layers {
		if math.Abs(self[l]-wantSelf[l]) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", l, self[l], wantSelf[l])
		}
	}
	if math.Abs(un-wantUn) > 1e-9 {
		t.Errorf("unattributed = %v, want %v", un, wantUn)
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, "bench.job", 0, 100),
		sp(1, 0, 0, "markov.solve", 10, 60),
		sp(2, 1, 0, "sim.run", 20, 40),
	}
	checkFold(t, spans, map[string]float64{"markov": 30, "sim": 20}, 50)
}

// TestSelfTimeConcurrentWorkers folds two overlapping replicas on two
// worker lanes: the main goroutine waiting inside engine.run gets nothing
// while a replica runs, the overlap is split between the workers, and time
// with no replica running stays with the engine.
func TestSelfTimeConcurrentWorkers(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, "bench.job", 0, 100),
		sp(1, 0, 0, "engine.run", 0, 90),
		sp(2, 1, 1, "engine.replica", 0, 60),
		sp(3, 2, 1, "sim.run", 5, 60),
		sp(4, 1, 2, "engine.replica", 20, 70),
		sp(5, 4, 2, "sim.run", 20, 70),
	}
	// [0,5) replica 2 alone: engine 5. [5,20) sim 15. [20,60) two sims:
	// 40. [60,70) one sim: 10. [70,90) the main goroutine in engine.run:
	// engine 20. [90,100) the root: unattributed 10.
	checkFold(t, spans, map[string]float64{"engine": 25, "sim": 65}, 10)
}

func TestSelfTimeClipsAndIgnoresOutsiders(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, "bench.job", 10, 50),
		sp(1, 0, 1, "sim.run", 0, 80), // starts before and ends after the root
		sp(2, -1, 0, "markov.solve", 0, 100),
	}
	checkFold(t, spans, map[string]float64{"sim": 40}, 0)
}

// TestSelfTimeAddsUp checks on random span trees, with children on new
// lanes overlapping each other, that per-layer self time plus unattributed
// time is the root's duration.
func TestSelfTimeAddsUp(t *testing.T) {
	names := []string{"engine.run", "engine.replica", "sim.run", "store.write", "sweep.grid", "bench.glue"}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		spans := []span{sp(0, -1, 0, "bench.job", 0, 1000)}
		lanes := 1
		for i := 1; i < 40; i++ {
			p := spans[r.Intn(len(spans))]
			if p.End-p.Start < 2 {
				continue
			}
			a := p.Start + r.Int63n(p.End-p.Start)
			b := a + 1 + r.Int63n(p.End-a)
			lane := p.Lane
			if r.Intn(2) == 0 {
				lane = lanes
				lanes++
			}
			spans = append(spans, sp(len(spans), p.ID, lane, names[r.Intn(len(names))], a, b))
		}
		self, un := selfTimes(spans, 0)
		total := un
		for _, v := range self {
			total += v
		}
		if math.Abs(total-1000) > 1e-6 {
			t.Fatalf("seed %d: self times add up to %v, want 1000", seed, total)
		}
	}
}

func TestRecorderLanes(t *testing.T) {
	var nilRec *recorder
	ctx, id := nilRec.begin(context.Background(), "sim.run", true)
	nilRec.end(id, 0)
	if id != -1 || ctx.Value(spanKey{}) != nil {
		t.Fatalf("nil recorder recorded a span")
	}

	rec := newRecorder()
	root, rid := rec.begin(context.Background(), "bench.job", false)
	_, a := rec.begin(root, "engine.replica", true)
	bctx, b := rec.begin(root, "engine.replica", true)
	_, c := rec.begin(bctx, "sim.run", false)
	rec.end(c, 7)
	rec.end(a, 0)
	_, d := rec.begin(root, "engine.replica", true) // reuses lane 1
	rec.end(d, 0)
	rec.end(b, 0)
	rec.end(rid, 0)
	spans := rec.closed()
	want := []struct{ parent, lane int }{{-1, 0}, {0, 1}, {0, 2}, {2, 2}, {0, 1}}
	for i, w := range want {
		if spans[i].Parent != w.parent || spans[i].Lane != w.lane {
			t.Errorf("span %d (%s): parent %d lane %d, want parent %d lane %d", i, spans[i].Name, spans[i].Parent, spans[i].Lane, w.parent, w.lane)
		}
	}
	if spans[3].Arg != 7 {
		t.Errorf("sim.run arg = %d, want 7", spans[3].Arg)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := newRecorder()
	root, rid := rec.begin(context.Background(), "bench.job", false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, id := rec.begin(root, "engine.replica", true)
				_, in := rec.begin(ctx, "sim.run", false)
				rec.end(in, 0)
				rec.end(id, 0)
			}
		}()
	}
	wg.Wait()
	rec.end(rid, 0)
	spans := rec.closed()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Lane < 1 || s.Lane > 4 {
			t.Fatalf("span on lane %d, want 1..4", s.Lane)
		}
	}
}

// TestChromeTraceShape checks the fields cmd/tracetool summarize reads.
func TestChromeTraceShape(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, "bench.job", 0, 2000),
		sp(1, 0, 1, "sim.run", 500, 1500),
	}
	spans[1].Arg = 42
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans, map[string]string{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData map[string]string `json:"otherData"`
		Events    []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				V    int64  `json:"v"`
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["workload"] != "test" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	var found bool
	for _, e := range doc.Events {
		if e.Ph == "X" && e.Name == "sim.run" {
			found = true
			if e.Cat != "sim" || e.Tid != 1 || e.TS != 0.5 || e.Dur != 1 || e.Args.V != 42 {
				t.Errorf("sim.run event = %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("no sim.run span in %s", buf.String())
	}
}
