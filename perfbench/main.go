// Command perfbench is the repository's benchmark. It runs one workload —
// solve, trajectory, phasemap or large-n — built from the public functions
// of the layer packages, times each call into a layer from outside the
// layer, checks the answers, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run alternates untraced and traced runs
// of the same job; the traced runs record spans around the layer calls
// and give the per-layer metrics, and the spans of one traced run are
// written as Chrome trace JSON. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// env is what a workload's set-up receives.
type env struct {
	seed    uint64
	workers int    // engine worker pool size
	dir     string // empty directory for the run's files
	rec     *recorder
}

// job is a prepared workload: run is the timed part; cleanup releases
// whatever set-up opened and run did not close.
type job struct {
	run     func(ctx context.Context) (*outcome, error)
	cleanup func()
}

// workload names a set-up function. Timed runs use one engine worker:
// at two, concurrent replicas' generators can share a cache line (see
// README.md, "Defects found") and the run time jumps between two modes.
// A multi workload also runs on a pool of parallel workers: its answers
// must have the same digest as at one worker, and its traced runs use
// that pool, whose engine metrics are the ones of interest.
type workload struct {
	name    string
	prepare func(*env) (*job, error)
	multi   bool
}

func workloads() []workload {
	return []workload{
		{name: "solve", prepare: prepareSolve},
		{name: "trajectory", prepare: prepareTrajectory, multi: true},
		{name: "phasemap", prepare: preparePhasemap, multi: true},
		{name: "large-n", prepare: prepareLargeN},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: solve, trajectory, phasemap or large-n")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measure for about this long (whole jobs; at least one)")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seed == 0 {
		return errors.New("-seed must be positive")
	}
	parallel := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(parallel)
	var w workload
	for _, c := range workloads() {
		if c.name == *name {
			w = c
		}
	}
	if w.prepare == nil {
		return fmt.Errorf("unknown -workload %q (want solve, trajectory, phasemap or large-n)", *name)
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{w: w, seed: *seed, work: work, budget: time.Duration(*seconds * float64(time.Second))}
	if w.multi && parallel > 1 {
		b.parallel = parallel
	}
	meta := collectMeta(*seed, parallel, b.parallel)
	printMeta(stdout, w.name, meta)
	if *traced == 0 {
		return b.timed(stdout)
	}
	return b.traced(stdout, filepath.Join(".bench_build", "trace-"+w.name+".json"), meta)
}

// bench runs one workload's jobs.
type bench struct {
	w      workload
	seed   uint64
	work   string
	budget time.Duration
	// parallel is the engine pool size of the traced runs and the digest
	// self-check; 0 when the workload has none.
	parallel int
	n        int // runs so far, for directory names
}

// rep is one set-up and run of the job.
type rep struct {
	setup, wall float64 // seconds
	out         *outcome
}

// once sets the job up and, unless setupOnly, runs it under a root span of
// rec (nil for an untraced run).
func (b *bench) once(workers int, rec *recorder, setupOnly bool) (rep, error) {
	b.n++
	runtime.GC() // every run starts from the same heap, free of earlier runs' garbage
	t0 := time.Now()
	dir, err := freshDir(b.work, fmt.Sprintf("run%d", b.n))
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	j, err := b.w.prepare(&env{seed: b.seed, workers: workers, dir: dir, rec: rec})
	t1 := time.Now()
	if err != nil {
		return rep{}, fmt.Errorf("%s: set-up: %w", b.w.name, err)
	}
	if j.cleanup != nil {
		defer j.cleanup()
	}
	r := rep{setup: t1.Sub(t0).Seconds()}
	if setupOnly {
		return r, nil
	}
	ctx, root := rec.begin(context.Background(), "bench.job", false)
	out, err := j.run(ctx)
	rec.end(root, 0)
	r.wall = time.Since(t1).Seconds()
	if err == nil {
		err = out.runChecks()
	}
	if err != nil {
		return rep{}, fmt.Errorf("%s: %w", b.w.name, err)
	}
	r.out = out
	return r, nil
}

// more reports whether to start another run: always the first, then while
// the budget would not be overrun by more than half of the last run.
func (b *bench) more(start time.Time, last time.Duration) bool {
	return last == 0 || time.Since(start)+last/2 < b.budget
}

// Set-up is sampled at least minSetups times and, while each sample is
// short, until the samples add up to setupSampleTime (at most maxSetups).
const (
	minSetups       = 5
	maxSetups       = 2000
	setupSampleTime = 50 * time.Millisecond
)

// timed measures the end-to-end metrics with tracing off: whole jobs until
// the budget is spent, then the digest self-check on the parallel pool,
// then extra set-ups until the set-up median has enough samples.
func (b *bench) timed(stdout io.Writer) error {
	peak := startHeapPeak()
	var reps []rep
	for start, last := time.Now(), time.Duration(0); b.more(start, last); {
		t := time.Now()
		r, err := b.once(1, nil, false)
		if err != nil {
			peak.stop()
			return err
		}
		reps = append(reps, r)
		last = time.Since(t)
	}
	peakBytes := peak.stop()
	v := b.verify(reps)
	if b.parallel != 0 {
		r, err := b.once(b.parallel, nil, false)
		if err != nil {
			return err
		}
		v.selfCheck(reps[0], r, b.parallel)
	}
	setups, err := b.setupSamples(reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "runs       %d timed (engine workers 1), %d set-up samples\n", len(reps), len(setups))
	fmt.Fprintf(stdout, "runs       wall s %s\n", formatAll(walls(reps)))
	e2e := []metric{
		{"wall_s", median(walls(reps)), "s"},
		{"setup_s", median(setups), "s"},
		{"peak_heap_mb", float64(peakBytes) / (1 << 20), "MB"},
	}
	extras := workloadMetrics(reps)
	printMetrics(stdout, append(append([]metric{}, e2e...), extras...))
	return v.finish(stdout, e2e)
}

// setupSamples returns the reps' set-up times plus as many set-up-only
// samples as the set-up median needs.
func (b *bench) setupSamples(reps []rep) ([]float64, error) {
	var xs []float64
	var total float64
	for _, r := range reps {
		xs = append(xs, r.setup)
		total += r.setup
	}
	for len(xs) < maxSetups && (len(xs) < minSetups || total < setupSampleTime.Seconds()) {
		r, err := b.once(1, nil, true)
		if err != nil {
			return nil, err
		}
		xs = append(xs, r.setup)
		total += r.setup
	}
	return xs, nil
}

// traced alternates untraced and traced runs until the budget is spent,
// then reports the per-layer metrics of the traced run whose wall time is
// the median, and writes its spans to tracePath.
func (b *bench) traced(stdout io.Writer, tracePath string, meta runMeta) error {
	type tracedRep struct {
		rep
		rec *recorder
	}
	workers := max(1, b.parallel)
	var plain []rep
	var tr []tracedRep
	for start, last := time.Now(), time.Duration(0); b.more(start, last); {
		t := time.Now()
		r, err := b.once(workers, nil, false)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		rec := newRecorder()
		telemetry.SetDefault(telemetry.New()) // counts the kernel events inside sweep cells
		r, err = b.once(workers, rec, false)
		telemetry.SetDefault(nil)
		if err != nil {
			return err
		}
		tr = append(tr, tracedRep{rep: r, rec: rec})
		last = time.Since(t)
	}
	all := append([]rep{}, plain...)
	for _, r := range tr {
		all = append(all, r.rep)
	}
	v := b.verify(all) // tracing must not change the answers
	speedup := 0.0
	if b.parallel != 0 {
		r, err := b.once(1, nil, false)
		if err != nil {
			return err
		}
		v.selfCheck(r, plain[0], b.parallel)
		speedup = r.wall / median(walls(plain))
	}
	pick := tr[0]
	var tw []float64
	for _, r := range tr {
		tw = append(tw, r.wall)
	}
	mid := median(tw)
	for _, r := range tr {
		if math.Abs(r.wall-mid) < math.Abs(pick.wall-mid) {
			pick = r
		}
	}
	spans := pick.rec.closed()
	root := 0 // the bench.job span opens first
	lm := layerMetrics(spans, root, pick.out, workers)
	lm.put("engine.parallel_speedup", speedup, "ratio")
	lm.put("trace.overhead_frac", mid/median(walls(plain))-1, "frac")
	for _, m := range workloadMetrics(plain) {
		lm.put(m.name, m.value, m.unit)
	}

	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	werr := writeChrome(f, spans, meta.strings(b.w.name))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace: %w", werr)
	}
	fmt.Fprintf(stdout, "runs       %d untraced + %d traced (engine workers %d); spans of the median traced run in %s\n",
		len(plain), len(tr), workers, tracePath)
	printSelfTimes(stdout, spans, root)
	printMetrics(stdout, lm.list)
	return v.finish(stdout, lm.list)
}

func walls(reps []rep) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.wall
	}
	return xs
}

// formatAll renders samples compactly, in run order.
func formatAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
