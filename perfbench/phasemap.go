package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/stability"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// mapSpec is one adaptive sweep of the phasemap job, over Example 1
// (K=1, U_s=µ=1) on λ0 × µ/γ.
type mapSpec struct {
	name string
	// span names the Evaluate spans by the layer doing the cell's work.
	span string
	x    [2]float64 // λ0 range
	y    [2]float64 // µ/γ range
	nx   int
	ny   int
	// depth is the quadtree refinement depth below the base grid.
	depth int
	eval  func(seed uint64) sweep.Evaluator
	// stable and unstable are the classes Theorem 1 predicts on each side
	// of the boundary, in the evaluator's vocabulary.
	stable, unstable string
	// gate makes disagreement with Theorem 1 a failed check; otherwise it
	// is counted.
	gate bool
}

// phasemapSpecs returns the three sweeps: a sim map on phasemap's default
// 8×6 grid at depth 1, a 64×48 theory map at depth 3, and E18's quick
// hybrid map (4×3 at depth 1). Both Monte-Carlo maps use E18's quick
// protocol: horizon 150, peer cap 250, 4 replicas per cell.
func phasemapSpecs() []mapSpec {
	lambda0, muOverGamma := [2]float64{0.25, 6}, [2]float64{0, 0.9}
	return []mapSpec{
		{
			name: "sim", span: "sim.cell", x: lambda0, y: muOverGamma, nx: 8, ny: 6, depth: 1,
			eval: func(seed uint64) sweep.Evaluator {
				return sweep.Seeded{Evaluator: &sweep.Empirical{Horizon: 150, PeerCap: 250, Replicas: 4}, Seed: seed}
			},
			stable: "bounded", unstable: "grows",
		},
		{
			name: "theory", span: "stability.cell", x: lambda0, y: muOverGamma, nx: 64, ny: 48, depth: 3,
			eval:   func(uint64) sweep.Evaluator { return sweep.Theory{} },
			stable: stability.PositiveRecurrent.String(), unstable: stability.Transient.String(), gate: true,
		},
		{
			name: "hybrid", span: "hybrid.cell", x: lambda0, y: [2]float64{0.2, 0.8}, nx: 4, ny: 3, depth: 1,
			eval: func(seed uint64) sweep.Evaluator {
				return sweep.Seeded{Evaluator: &sweep.Hybrid{Horizon: 150, PeerCap: 250, Replicas: 4}, Seed: seed}
			},
			stable: "bounded", unstable: "grows",
		},
	}
}

// ex1 is Example 1's base point; the axes set λ0 and γ.
func ex1() model.Params {
	return model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2, Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}}
}

func (s mapSpec) grid() (sweep.Grid, error) {
	xa, err := sweep.AxisByName("lambda0")
	if err != nil {
		return sweep.Grid{}, err
	}
	ya, err := sweep.AxisByName("mu-over-gamma")
	if err != nil {
		return sweep.Grid{}, err
	}
	return sweep.Grid{
		Base:        ex1(),
		X:           sweep.AxisSpec{Axis: xa, Min: s.x[0], Max: s.x[1], Cells: s.nx},
		Y:           sweep.AxisSpec{Axis: ya, Min: s.y[0], Max: s.y[1], Cells: s.ny},
		RefineDepth: s.depth,
	}, nil
}

// sweepRun is one prepared sweep: its grid, wrapped evaluator and the
// cell store its cache spills to.
type sweepRun struct {
	spec  mapSpec
	grid  sweep.Grid
	eval  sweep.Evaluator
	path  string
	cache *sweep.Cache
	cs    *sweep.CellStore
}

// preparePhasemap creates one cell store per sweep and the wrapped
// evaluators. The run sweeps each map with its cells spilled to the store,
// then reopens the store and replays the sweep from it.
func preparePhasemap(e *env) (*job, error) {
	lat := &latencies{}
	var runs []*sweepRun
	cleanup := func() {
		for _, r := range runs {
			if r.cs != nil {
				r.cs.Close()
			}
		}
	}
	for _, spec := range phasemapSpecs() {
		g, err := spec.grid()
		if err != nil {
			cleanup()
			return nil, err
		}
		r := &sweepRun{
			spec:  spec,
			grid:  g,
			eval:  &timedEvaluator{Evaluator: spec.eval(e.seed), rec: e.rec, span: spec.span, lat: lat},
			path:  filepath.Join(e.dir, spec.name+".store"),
			cache: sweep.NewCache(),
		}
		runs = append(runs, r)
		if r.cs, _, err = sweep.OpenCellStore(r.path, r.cache); err != nil {
			cleanup()
			return nil, err
		}
	}
	return &job{
		run: func(ctx context.Context) (*outcome, error) {
			out := newOutcome()
			for _, r := range runs {
				if err := r.sweep(ctx, e, out); err != nil {
					return nil, err
				}
			}
			out.cellLat = lat.values()
			// The cells' kernels are out of the benchmark's reach; a traced
			// run installs a fresh telemetry registry, whose kernel event
			// count less the hybrid's exact events is the sim events.
			if reg := telemetry.Default(); reg != nil {
				out.add("sim.events", float64(reg.CounterValue(telemetry.KernelEvents)-reg.CounterValue(telemetry.HybridExactEvents)))
			}
			return out, nil
		},
		cleanup: cleanup,
	}, nil
}

func (r *sweepRun) sweep(ctx context.Context, e *env, out *outcome) error {
	gctx, id := e.rec.begin(ctx, "sweep.grid", false)
	m, err := r.grid.Run(gctx, &sweep.Runner{Evaluator: r.eval, Workers: e.workers, Cache: r.cache})
	e.rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("phasemap %s: %w", r.spec.name, err)
	}
	_, id = e.rec.begin(ctx, "store.write", false)
	err = r.cs.Close()
	r.cs = nil
	e.rec.end(id, -1)
	if err != nil {
		return fmt.Errorf("phasemap %s: close cell store: %w", r.spec.name, err)
	}

	// Read the store back into a fresh cache and replay the sweep from it:
	// every cell must come from the store and the map must be the same.
	_, id = e.rec.begin(ctx, "store.scan", false)
	replayCache := sweep.NewCache()
	cs, loaded, err := sweep.OpenCellStore(r.path, replayCache)
	e.rec.end(id, int64(loaded))
	if err != nil {
		return fmt.Errorf("phasemap %s: reopen cell store: %w", r.spec.name, err)
	}
	gctx, id = e.rec.begin(ctx, "sweep.grid", false)
	replay, err := r.grid.Run(gctx, &sweep.Runner{Evaluator: r.eval, Workers: e.workers, Cache: replayCache})
	e.rec.end(id, 0)
	if cerr := cs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("phasemap %s: replay: %w", r.spec.name, err)
	}
	evaluated := float64(m.Stats.Evaluated)
	out.cells += evaluated
	out.add("sweep.cells_evaluated", evaluated)
	out.add("sweep.cache_hits", float64(m.Stats.CacheHits+replay.Stats.CacheHits))
	out.add("sweep.rounds", float64(m.Stats.Rounds))
	out.add("engine.replicas", evaluated)
	out.add(r.spec.layer()+".cells", evaluated)
	out.later(func() error { return r.check(m, replay, loaded, out) })
	return nil
}

// check compares the replayed map with the swept one, checks the classes
// against Theorem 1 and counts the store's rows and bytes.
func (r *sweepRun) check(m, replay *sweep.Map, loaded int, out *outcome) error {
	same := sameCells(m, replay)
	out.op(loaded == m.Stats.Evaluated && replay.Stats.Evaluated == 0 && same,
		"phasemap %s: store replay loaded %d of %d cells, re-evaluated %d, same cells %v",
		r.spec.name, loaded, m.Stats.Evaluated, replay.Stats.Evaluated, same)
	digestMap(out, r.spec.name, m)
	out.add("sweep.boundary_cells", float64(boundaryCells(m)))

	// Theorem 1 classes: a gate on the theory map; on the Monte-Carlo
	// maps a measured disagreement (see README.md, "Output checks").
	checked, disagree, err := checkTheorem1(m, r.spec, func(msg string) {
		if r.spec.gate {
			out.fail("%s", msg)
		}
	})
	if err != nil {
		return err
	}
	if r.spec.gate {
		out.ops += checked
	} else {
		out.add("sweep.mc_theorem1_checked", float64(checked))
		out.add("sweep.mc_theorem1_disagree", float64(disagree))
	}
	rd, err := store.Open(r.path)
	if err != nil {
		return fmt.Errorf("phasemap %s: %w", r.spec.name, err)
	}
	rows := float64(rd.NumRows())
	rd.Close()
	size, err := fileSize(r.path)
	out.add("store.rows_written", rows)
	out.add("store.rows_scanned", rows)
	out.add("store.bytes", float64(size))
	return err
}

func (s mapSpec) layer() string { return span{Name: s.span}.layer() }

// checkTheorem1 compares every map cell more than one cell width from the
// analytic boundary λ0*(µ/γ) = CriticalScale × λ0 with the class Theorem 1
// gives it, calling bad for each disagreement. It returns how many cells
// it checked and how many disagreed.
func checkTheorem1(m *sweep.Map, spec mapSpec, bad func(string)) (checked, disagree int, err error) {
	ya, err := sweep.AxisByName("mu-over-gamma")
	if err != nil {
		return 0, 0, err
	}
	w := m.CellWidth()
	for iy, y := range m.Ys {
		pt := sweep.Point{Params: ex1()}
		if err := ya.Apply(&pt, y); err != nil {
			return 0, 0, err
		}
		scale, err := stability.CriticalScale(pt.Params)
		if err != nil {
			return 0, 0, fmt.Errorf("phasemap %s: critical scale at µ/γ=%g: %w", spec.name, y, err)
		}
		star := scale * pt.Params.Lambda[pieceset.Empty]
		for ix, x := range m.Xs {
			if math.Abs(x-star) <= w {
				continue
			}
			checked++
			want := spec.stable
			if x > star {
				want = spec.unstable
			}
			if got := m.At(ix, iy).Class; got != want {
				disagree++
				bad(fmt.Sprintf("phasemap %s: cell λ0=%.4g µ/γ=%.4g is %q, Theorem 1 gives %q (λ0*=%.4g)", spec.name, x, y, got, want, star))
			}
		}
	}
	return checked, disagree, nil
}

// sameCell reports whether two cells are identical, bit for bit.
func sameCell(a, b sweep.Cell) bool {
	if a.Class != b.Class || !sameBits(a.Value, b.Value) || len(a.Values) != len(b.Values) {
		return false
	}
	for k, v := range a.Values {
		if w, ok := b.Values[k]; !ok || !sameBits(v, w) {
			return false
		}
	}
	return true
}

func sameCells(a, b *sweep.Map) bool {
	if a.NX != b.NX || a.NY != b.NY {
		return false
	}
	for i := range a.Cells {
		if !sameCell(a.Cells[i], b.Cells[i]) {
			return false
		}
	}
	return true
}

// digestMap folds the raster into the digest as runs of identical
// consecutive cells in row-major order, so a fine map whose cells mostly
// repeat their quadtree leaf costs little to hash.
func digestMap(out *outcome, name string, m *sweep.Map) {
	out.answer("map %s %dx%d", name, m.NX, m.NY)
	for i := 0; i < len(m.Cells); {
		j := i + 1
		for j < len(m.Cells) && sameCell(m.Cells[i], m.Cells[j]) {
			j++
		}
		c := m.Cells[i]
		keys := make([]string, 0, len(c.Values))
		for k := range c.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(out.digest, "%d %s %x", j-i, c.Class, math.Float64bits(c.Value))
		for _, k := range keys {
			fmt.Fprintf(out.digest, " %s=%x", k, math.Float64bits(c.Values[k]))
		}
		out.digest.Write([]byte{'\n'})
		i = j
	}
}

// boundaryCells counts map cells with a 4-neighbour of another class.
func boundaryCells(m *sweep.Map) int {
	n := 0
	for iy := 0; iy < m.NY; iy++ {
		for ix := 0; ix < m.NX; ix++ {
			c := m.At(ix, iy).Class
			if (ix > 0 && m.At(ix-1, iy).Class != c) || (ix+1 < m.NX && m.At(ix+1, iy).Class != c) ||
				(iy > 0 && m.At(ix, iy-1).Class != c) || (iy+1 < m.NY && m.At(ix, iy+1).Class != c) {
				n++
			}
		}
	}
	return n
}
