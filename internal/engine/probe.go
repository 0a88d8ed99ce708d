package engine

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stragglerMinCount is how many replicas the busy histogram must hold
// before its p99 is treated as a meaningful straggler threshold.
const stragglerMinCount = 64

// probe is one job's instrumentation, bound once per job from
// telemetry.Default and trace.Default. It is nil when both are off, which
// turns every site into one predictable branch that reads no clock.
//
// Telemetry records replica lifecycle counts, the busy-time and queue-wait
// histograms (waits are zero on the serial pool), and per-worker busy/idle
// counters as labeled series. Tracing records, on each worker's track, a
// replica.wait span (parallel pools only), the replica busy span, one
// worker.loop span, and replica.error/replica.straggler anomalies; the
// job:NAME and job.aggregate spans go on the shared "engine" track.
// Timing is replica-granular and never feeds records, streams, or sinks,
// so instrumented runs emit byte-identical outputs, and the counts are
// schedule-independent (TestPoolMetricsDeterministicCounts).
type probe struct {
	name string
	n    int

	reg                        *telemetry.Registry // nil when telemetry is off
	started, completed, failed *telemetry.Counter
	busy, wait                 *telemetry.Histogram

	tr   *trace.Tracer // nil when tracing is off
	jb   *trace.Buf    // the "engine" track
	job0 int64
	base time.Time // clock origin when tracing is off
	sent []int64   // feeder hand-out stamps, parallel pools only
}

// newProbe binds the instrumentation of job name (n replicas) and opens
// its job span, or returns nil when telemetry and tracing are both off.
func newProbe(name string, n int) *probe {
	reg, tr := telemetry.Default(), trace.Default()
	if reg == nil && tr == nil {
		return nil
	}
	p := &probe{name: name, n: n, reg: reg, tr: tr, jb: tr.Track("engine")}
	if reg != nil {
		reg.Counter(telemetry.EngineJobs).Inc()
		p.started = reg.Counter(telemetry.EngineReplicasStarted)
		p.completed = reg.Counter(telemetry.EngineReplicasCompleted)
		p.failed = reg.Counter(telemetry.EngineReplicasFailed)
		p.busy = reg.Histogram(telemetry.EngineReplicaBusyNS)
		p.wait = reg.Histogram(telemetry.EngineQueueWaitNS)
	}
	if tr == nil {
		p.base = time.Now()
	}
	p.job0 = p.jb.Now()
	return p
}

// now reads the probe's clock: the tracer's when tracing is on, so spans
// and durations share readings, else nanoseconds since the probe bound.
func (p *probe) now() int64 {
	if p.tr != nil {
		return p.tr.Now()
	}
	return int64(time.Since(p.base))
}

// jobNow reads the engine track's clock (0 when tracing is off).
func (p *probe) jobNow() int64 {
	if p == nil {
		return 0
	}
	return p.jb.Now()
}

// jobSpan closes a span on the engine track that opened at start.
func (p *probe) jobSpan(name string, start int64) {
	if p != nil {
		p.jb.Span(name, "engine", start, int64(p.n))
	}
}

// end closes the job:NAME span newProbe opened.
func (p *probe) end() {
	if p != nil && p.jb != nil {
		p.jobSpan("job:"+p.name, p.job0)
	}
}

// queue allocates the feeder's hand-out stamps before the workers start.
func (p *probe) queue(n int) {
	if p != nil {
		p.sent = make([]int64, n)
	}
}

// handOut stamps replica i as handed out. The feeder writes before the
// channel send and the worker reads after the receive, so no lock.
func (p *probe) handOut(i int) {
	if p != nil {
		p.sent[i] = p.now()
	}
}

// probeWorker is one worker's view of the probe: its track ("worker/w",
// shared by every job, so the timeline shows pool reuse), its labeled
// busy/idle counters, and its running totals.
type probeWorker struct {
	p              *probe
	tb             *trace.Buf
	busyCt, idleCt telemetry.Count
	loop0, t0      int64
	busy, handled  int64
}

// worker binds worker w's view; the view of a nil probe is inert.
func (p *probe) worker(w int) probeWorker {
	if p == nil {
		return probeWorker{}
	}
	id := strconv.Itoa(w)
	pw := probeWorker{p: p, tb: p.tr.Track("worker/" + id), loop0: p.now()}
	if p.reg != nil {
		pw.busyCt = p.reg.Counter(telemetry.Labeled(telemetry.EngineWorkerBusyNS, "worker", id)).Grab()
		pw.idleCt = p.reg.Counter(telemetry.Labeled(telemetry.EngineWorkerIdleNS, "worker", id)).Grab()
	}
	return pw
}

// mark closes a span on the worker's track and returns the clock reading
// that ended it.
func (w *probeWorker) mark(name string, start, arg int64) int64 {
	if w.tb != nil {
		return w.tb.Span(name, "engine", start, arg)
	}
	return w.p.now()
}

// start records that replica i begins.
func (w *probeWorker) start(i int) {
	if w.p == nil {
		return
	}
	w.t0 = w.p.now()
	var wait int64
	if w.p.sent != nil && w.t0 > w.p.sent[i] {
		wait = w.t0 - w.p.sent[i]
		w.tb.Span("replica.wait", "engine", w.p.sent[i], int64(i))
	}
	w.p.started.Inc()
	w.p.wait.ObserveDuration(time.Duration(wait))
}

// done records replica i's busy time and outcome. Once enough replicas
// have finished, one reaching the p99 of the job's busy histogram (the one
// /vars reports) is marked a straggler; in flight-recorder mode that mark,
// like replica.error, dumps the rings around it.
func (w *probeWorker) done(i int, err error) {
	if w.p == nil {
		return
	}
	d := w.mark("replica", w.t0, int64(i)) - w.t0
	w.busy += d
	w.handled++
	w.busyCt.Add(uint64(d))
	w.p.busy.ObserveDuration(time.Duration(d))
	if err != nil {
		w.p.failed.Inc()
		w.tb.Anomaly("replica.error", int64(i))
		return
	}
	w.p.completed.Inc()
	if w.tb != nil && w.p.busy.Count() >= stragglerMinCount && uint64(d) >= w.p.busy.Quantile(0.99) {
		w.tb.Anomaly("replica.straggler", int64(i))
	}
}

// close records the worker.loop span (argument = replicas run) and the
// loop's idle time, the part not spent in replicas.
func (w *probeWorker) close() {
	if w.p == nil {
		return
	}
	if idle := w.mark("worker.loop", w.loop0, w.handled) - w.loop0 - w.busy; idle > 0 {
		w.idleCt.Add(uint64(idle))
	}
}
