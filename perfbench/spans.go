package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// layers are the repository modules the benchmark attributes time to, in
// report order. A span belongs to the layer named before the first dot of
// its name ("markov.solve" → markov); spans of any other prefix are the
// benchmark's own and count as unattributed.
var layers = []string{"markov", "sim", "peersim", "hybrid", "engine", "sweep", "stability", "store"}

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's origin; End is -1 while the span is open.
type span struct {
	ID, Parent int // Parent is -1 for a root span
	Lane       int // 0 is the main goroutine; 1.. are worker lanes
	Name       string
	Start, End int64
	Arg        int64
	ownLane    bool // the span took its lane and frees it on end
}

func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the benchmark's spans in memory. A nil recorder records
// nothing: every method is a no-op, which is how tracing stays off in the
// timed runs.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	lanes  []bool // lanes[i] is true while a span owns worker lane i
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), lanes: []bool{true}}
}

type spanKey struct{}

// spanRef is the context value naming the enclosing span and its lane.
type spanRef struct{ id, lane int }

// begin opens a span named name as a child of the span carried by ctx (a
// root span when ctx carries none). A span for a callback the engine may
// run concurrently takes the lowest free worker lane (newLane); any other
// span stays on its parent's lane. The returned context carries the new
// span for the calls it encloses.
func (r *recorder) begin(ctx context.Context, name string, newLane bool) (context.Context, int) {
	if r == nil {
		return ctx, -1
	}
	parent := spanRef{id: -1}
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		parent = p
	}
	r.mu.Lock()
	lane := parent.lane
	if newLane {
		lane = r.takeLane()
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent.id, Lane: lane, Name: name,
		Start: int64(time.Since(r.origin)), End: -1, ownLane: newLane,
	})
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, lane: lane}), id
}

// end closes span id with an optional argument (a count or an index).
func (r *recorder) end(id int, arg int64) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	s := &r.spans[id]
	s.End, s.Arg = now, arg
	if s.ownLane {
		r.lanes[s.Lane] = false
	}
	r.mu.Unlock()
}

func (r *recorder) takeLane() int {
	for i, busy := range r.lanes {
		if !busy {
			r.lanes[i] = true
			return i
		}
	}
	r.lanes = append(r.lanes, true)
	return len(r.lanes) - 1
}

// closed returns a copy of the spans that have ended.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes folds the spans under root into wall-clock time per layer.
// The root's interval is cut at every span boundary. Within each piece,
// the active spans with no active child are the ones doing work; the
// piece's duration is split equally among them and credited to their
// layers. A span whose children are running — the main goroutine waiting
// inside engine.Run while two workers simulate — gets nothing, so two
// concurrent workers each get half of the wall time they overlap.
// Time in which only the root, or a span of no layer, is a leaf is
// unattributed. The per-layer values plus unattributed add up to the
// root's duration exactly (up to float rounding).
func selfTimes(spans []span, root int) (self map[string]float64, unattributed float64) {
	self = make(map[string]float64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rs, ok := byID[root]
	if !ok {
		return self, 0
	}
	// Keep the root's descendants, clipped to its interval.
	inTree := map[int]bool{root: true}
	var tree []span
	for _, s := range spans { // spans are in start order, parents first
		if s.ID == root || inTree[s.Parent] {
			inTree[s.ID] = true
			if s.Start < rs.Start {
				s.Start = rs.Start
			}
			if s.End > rs.End {
				s.End = rs.End
			}
			if s.End > s.Start || s.ID == root {
				tree = append(tree, s)
			}
		}
	}
	type edge struct {
		t     int64
		start bool
		id    int
	}
	edges := make([]edge, 0, 2*len(tree))
	for _, s := range tree {
		edges = append(edges, edge{s.Start, true, s.ID}, edge{s.End, false, s.ID})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	active := map[int]bool{}
	kids := map[int]int{} // active children per span
	for i := 0; i < len(edges); {
		t := edges[i].t
		for ; i < len(edges) && edges[i].t == t; i++ {
			e := edges[i]
			p := byID[e.id].Parent
			if e.start {
				active[e.id] = true
				kids[p]++
			} else {
				delete(active, e.id)
				kids[p]--
			}
		}
		if i == len(edges) {
			break
		}
		dt := float64(edges[i].t - t)
		if dt == 0 {
			continue
		}
		var leaves []int
		for id := range active {
			if kids[id] == 0 {
				leaves = append(leaves, id)
			}
		}
		for _, id := range leaves {
			share := dt / float64(len(leaves))
			if l := byID[id].layer(); id != root && isLayer(l) {
				self[l] += share
			} else {
				unattributed += share
			}
		}
	}
	return self, unattributed
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// chromeEvent is one Chrome trace event; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as Chrome trace-event JSON, the format
// cmd/tracetool summarize reads and Perfetto loads: one complete ("X")
// event per span with its layer as category, plus thread names for lanes.
func writeChrome(w io.Writer, spans []span, meta map[string]string) error {
	evs := make([]chromeEvent, 0, len(spans)+4)
	lanes := map[int]bool{}
	for _, s := range spans {
		lanes[s.Lane] = true
	}
	laneIDs := make([]int, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Ints(laneIDs)
	for _, l := range laneIDs {
		name := "main"
		if l > 0 {
			name = fmt.Sprintf("worker-lane-%d", l)
		}
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l, Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: s.Lane,
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"v": s.Arg},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{evs, "ms", meta})
}
