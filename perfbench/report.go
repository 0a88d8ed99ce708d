package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// metricList keeps metrics in the order they are put. A ratio with a zero
// base is reported as 0, not NaN, which JSON cannot carry.
type metricList struct{ list []metric }

func (l *metricList) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.list = append(l.list, metric{name, v, unit})
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "metric     %-28s %-14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
}

// verdict accumulates operations, failures and the answers' digest over
// the runs of one invocation.
type verdict struct {
	attempted, failed int
	problems          []string
	digest            string
}

// verify folds the runs' operations and checks that every run of the
// same inputs produced the same digest.
func (b *bench) verify(reps []rep) *verdict {
	v := &verdict{digest: reps[0].out.sum()}
	for i, r := range reps {
		v.attempted += r.out.ops
		v.failed += r.out.failed
		v.problems = append(v.problems, r.out.problems...)
		if d := r.out.sum(); d != v.digest {
			v.attempted++
			v.failed++
			v.problems = append(v.problems, fmt.Sprintf("run %d digest %s differs from run 1's %s", i+1, d, v.digest))
		}
	}
	return v
}

// selfCheck counts one operation: the answers on a pool of parallel
// workers must have the digest of the answers at one worker.
func (v *verdict) selfCheck(one, par rep, parallel int) {
	v.attempted++
	if d := par.out.sum(); d != one.out.sum() {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf("digest at %d workers %s differs from 1 worker's %s", parallel, d, one.out.sum()))
	}
}

// finish prints the digest, the failed checks and the result line.
func (v *verdict) finish(w io.Writer, ms []metric) error {
	fmt.Fprintf(w, "digest     sha256:%s\n", v.digest)
	seen := map[string]bool{}
	for _, p := range v.problems {
		if !seen[p] {
			seen[p] = true
			fmt.Fprintf(w, "FAILED     %s\n", p)
		}
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// workloadMetrics returns the end-to-end metrics that belong to some
// workloads only, from untraced runs: failed_frac everywhere, events_per_s
// where kernel events run, and cell throughput and latency on phasemap.
// Rates are medians over runs of the per-run rate; a metric a workload
// does not have is 0.
func workloadMetrics(reps []rep) []metric {
	var ops, failed int
	var evRate, cellRate, p50s []float64
	var lat []float64
	for _, r := range reps {
		ops += r.out.ops
		failed += r.out.failed
		if r.out.events > 0 {
			evRate = append(evRate, r.out.events/r.wall)
		}
		if r.out.cells > 0 {
			cellRate = append(cellRate, r.out.cells/r.wall)
			p50s = append(p50s, median(r.out.cellLat))
			lat = append(lat, r.out.cellLat...)
		}
	}
	pct, v, beyond, _ := tail(lat)
	return []metric{
		{"failed_frac", float64(failed) / float64(max(ops, 1)), "frac"},
		{"events_per_s", median(evRate), "1/s"},
		{"cells_per_s", median(cellRate), "1/s"},
		{"cell_s_p50", median(p50s), "s"},
		{"cell_s_tail", v, "s"},
		{"cell_s_tail_pct", pct, "pct"},
		{"cell_s_tail_beyond", float64(beyond), "count"},
		{"cell_s_samples", float64(len(lat)), "count"},
	}
}

// heapPeak samples the Go heap's live-object bytes until stopped.
type heapPeak struct {
	stopc, done chan struct{}
	peak        uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// runMeta describes the machine and build a run measured.
type runMeta struct {
	commit, goVersion, cpu string
	nproc, gomaxprocs      int
	parallel               int // engine pool of the traced and self-check runs
	llcBytes               int64
	seed                   uint64
}

func collectMeta(seed uint64, gomaxprocs, parallel int) runMeta {
	m := runMeta{
		commit:     os.Getenv("PERFBENCH_COMMIT"),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: gomaxprocs,
		parallel:   parallel,
		llcBytes:   lastLevelCache(),
		seed:       seed,
	}
	if m.commit == "" {
		m.commit = "unknown"
	}
	return m
}

func printMeta(w io.Writer, workload string, m runMeta) {
	fmt.Fprintf(w, "workload   %s  seed %d\n", workload, m.seed)
	fmt.Fprintf(w, "meta       commit %s  %s  %s/%s  nproc %d  GOMAXPROCS %d  engine workers 1 (timed), %d (traced, self-check)\n",
		m.commit, m.goVersion, runtime.GOOS, runtime.GOARCH, m.nproc, m.gomaxprocs, max(1, m.parallel))
	fmt.Fprintf(w, "meta       cpu %q  last-level cache %d KiB\n", m.cpu, m.llcBytes>>10)
}

// strings renders the metadata for the trace file's otherData.
func (m runMeta) strings(workload string) map[string]string {
	return map[string]string{
		"benchmark":  "perfbench",
		"workload":   workload,
		"commit":     m.commit,
		"go":         m.goVersion,
		"cpu":        m.cpu,
		"nproc":      strconv.Itoa(m.nproc),
		"gomaxprocs": strconv.Itoa(m.gomaxprocs),
		"parallel":   strconv.Itoa(m.parallel),
		"llc_bytes":  strconv.FormatInt(m.llcBytes, 10),
		"seed":       strconv.FormatUint(m.seed, 10),
	}
}

// cpuModel reads the first model name in /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastLevelCache returns the size in bytes of CPU 0's highest-level
// cache from sysfs, or 0 where sysfs does not say.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var level, size int64
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		l, err := strconv.ParseInt(strings.TrimSpace(string(lb)), 10, 64)
		if err != nil || l < level {
			continue
		}
		s := strings.TrimSpace(string(sb))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		level, size = l, n*mult
	}
	return size
}

// printSelfTimes prints the fold of the traced run's spans: wall-clock
// self time per layer, plus unattributed time, adding up to the run.
func printSelfTimes(w io.Writer, spans []span, root int) {
	self, un := selfTimes(spans, root)
	total := float64(spans[root].dur())
	fmt.Fprintf(w, "self time  %-10s %10s %7s\n", "layer", "s", "share")
	names := append([]string{}, layers...)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	sum := un
	for _, l := range names {
		sum += self[l]
		fmt.Fprintf(w, "self time  %-10s %10.4f %6.1f%%\n", l, self[l]/1e9, 100*self[l]/total)
	}
	fmt.Fprintf(w, "self time  %-10s %10.4f %6.1f%%\n", "(none)", un/1e9, 100*un/total)
	fmt.Fprintf(w, "self time  %-10s %10.4f %6.1f%%  (traced wall %.4f s)\n", "sum", sum/1e9, 100*sum/total, total/1e9)
}
