// Package trace is the execution-tracing substrate shared by the kernel,
// the Monte-Carlo engine, the sweep subsystem, and the cmd binaries: a
// low-overhead span/instant-event tracer that answers "where did the time
// go in this run" the way internal/telemetry answers "how much / how
// fast". It follows the same zero-cost-when-off design contract:
//
//   - Disabled (no tracer installed): every handle is nil and every
//     operation is an inlined nil-check no-op — tracing compiles down to
//     one predictable branch at each instrumentation site, which the
//     kernel's overhead gate (TestInstrumentationOverhead) pins below 2%
//     of the event loop.
//   - Enabled: events land in per-track fixed-size ring buffers with zero
//     allocations on the write path (an Event slot holds only integers and
//     references to caller-provided string constants). Instrumentation is
//     coarse by design — per replica, per sweep batch, per 1024 kernel
//     events — so the uncontended per-write mutex is off every per-event
//     hot path.
//
// Two sinks:
//
//   - Full-trace mode (Config.Stream): rings flush to a streaming Chrome
//     trace-event JSON writer whenever they fill and at Close. The file
//     loads in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//   - Flight-recorder mode (Config.FlightPath): rings stay hot and wrap,
//     overwriting the oldest events; an anomaly (kernel.ErrNoProgress,
//     kernel.ErrHalted, a replica error, a p99-outlier straggler) dumps
//     the recent tail to the flight file. Dumps are capped (Config.
//     MaxDumps) so a pathological run cannot thrash the disk, and Close
//     writes one final "end-of-run" dump so the file always exists.
//
// Tracing is strictly off the deterministic output path: nothing here
// consumes randomness, writes to stdout, or feeds back into a simulation —
// CI runs the determinism diffs with -trace live to enforce it.
package trace

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Phase bytes for Event.Ph, following the Chrome trace-event format.
const (
	// PhaseSpan is a complete event ("X"): a duration slice on its track.
	PhaseSpan = byte('X')
	// PhaseInstant is an instant event ("i"): a point-in-time marker.
	PhaseInstant = byte('i')
)

// Event is one ring-buffer slot. All fields are plain integers or string
// headers referencing caller-owned constants, so writing a slot allocates
// nothing.
type Event struct {
	// TS is the event start in nanoseconds on the tracer's monotonic
	// clock (origin = tracer construction).
	TS int64
	// Dur is the span duration in nanoseconds (0 for instants).
	Dur int64
	// Arg is one numeric argument (replica index, event count, …),
	// rendered as args:{"v":Arg}.
	Arg int64
	// Name and Cat are the Chrome event name and category. Callers pass
	// string constants (or rarely-built labels off the hot path).
	Name string
	Cat  string
	// Ph is the phase byte (PhaseSpan or PhaseInstant).
	Ph byte
}

// Config configures a Tracer. At least one of Stream and FlightPath should
// be set for the tracer to be observable.
type Config struct {
	// Stream, when non-nil, receives the full trace as streaming Chrome
	// trace-event JSON: rings flush into it when full and at Close.
	Stream io.Writer
	// FlightPath, when non-empty, is the file anomaly dumps (and the final
	// end-of-run dump) are written to. Each dump atomically rewrites the
	// file with the rings' current contents, so it always holds the most
	// recent tail.
	FlightPath string
	// RingSize is the per-track ring capacity in events (default 1024).
	RingSize int
	// MaxDumps caps anomaly-triggered flight dumps (default 8); the final
	// end-of-run dump does not count against it.
	MaxDumps int
	// Meta is attached to every emitted file under "otherData" — the cli
	// layer stamps the build info here so artifacts are attributable.
	Meta map[string]string
}

// Tracer owns the track registry and the sinks. Build one with New; the
// nil *Tracer is the disabled tracer: every method is a no-op and every
// returned handle is nil.
type Tracer struct {
	base   time.Time
	stream io.Writer
	flight string
	ring   int
	meta   map[string]string

	dumpsLeft atomic.Int64
	dumps     atomic.Int64
	shardNext atomic.Uint32

	// mu guards the track registry and the stream writer. Lock ordering:
	// Tracer.mu before Buf.mu, always.
	mu        sync.Mutex
	tracks    map[string]*Buf
	order     []*Buf
	headerOK  bool
	streamErr error
	closed    bool
}

// New builds a tracer. The monotonic clock origin is the call instant.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = 8
	}
	t := &Tracer{
		base:   time.Now(),
		stream: cfg.Stream,
		flight: cfg.FlightPath,
		ring:   cfg.RingSize,
		meta:   cfg.Meta,
		tracks: make(map[string]*Buf),
	}
	t.dumpsLeft.Store(int64(cfg.MaxDumps))
	return t
}

// defaultTracer is the process-wide tracer consulted by instrumented
// components at construction time. Nil (the default) disables tracing.
var defaultTracer atomic.Pointer[Tracer]

// Default returns the installed process tracer, or nil when tracing is
// disabled.
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault installs (or with nil removes) the process tracer. Components
// pick it up at their next construction; handles already grabbed keep
// writing to the tracer they came from.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// Now returns the tracer's monotonic clock reading in nanoseconds since
// construction. Nil-safe: the disabled tracer reads no clock and returns 0.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// Track returns the ring buffer for the named track, creating it on first
// use. Tracks map one-to-one onto Perfetto threads (tid = creation order).
// Nil-safe: a nil tracer returns the nil (no-op) buffer.
func (t *Tracer) Track(name string) *Buf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.tracks[name]
	if !ok {
		b = &Buf{t: t, name: name, tid: len(t.order) + 1, ev: make([]Event, t.ring)}
		t.tracks[name] = b
		t.order = append(t.order, b)
	}
	return b
}

// kernelShards bounds the shared kernel track pool: one track per
// GOMAXPROCS keeps concurrent replicas on distinct rings in the common
// case without growing the registry per replica.
func kernelShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Kernel returns a ring from the shared kernel track pool, round-robin —
// the kernel-side analogue of telemetry.Counter.Grab. Thousands of
// short-lived kernels (one per replica) share GOMAXPROCS rings instead of
// registering one each; ring writes are mutex-guarded, so sharing is safe,
// and concurrent replicas land on distinct shards in the common case.
func (t *Tracer) Kernel() *Buf {
	if t == nil {
		return nil
	}
	shard := int(t.shardNext.Add(1)-1) % kernelShards()
	return t.Track("kernel/" + itoa(shard))
}

// Dumps reports how many anomaly dumps have been written (for tests and
// the end-of-run summary).
func (t *Tracer) Dumps() int {
	if t == nil {
		return 0
	}
	return int(t.dumps.Load())
}

// Buf is one track's fixed-size ring buffer — the handle instrumentation
// sites hold. The nil *Buf is the disabled handle: every method is one
// predictable branch.
type Buf struct {
	t    *Tracer
	name string
	tid  int

	mu    sync.Mutex
	ev    []Event
	next  int    // next write slot
	count int    // valid events in the ring (≤ len(ev))
	total uint64 // events ever written (wrap diagnostics)
}

// Live reports whether the handle is bound to a real ring — the guard hot
// loops check before doing any extra bookkeeping (clock reads, watermark
// fields).
func (b *Buf) Live() bool { return b != nil }

// Now reads the tracer's monotonic clock. Nil-safe (returns 0).
func (b *Buf) Now() int64 {
	if b == nil {
		return 0
	}
	return b.t.Now()
}

// Span records a complete event from start (a prior Now reading) to the
// current instant and returns the end timestamp, so back-to-back spans can
// chain without a second clock read. No-op (returning 0) on the nil
// handle.
func (b *Buf) Span(name, cat string, start, arg int64) int64 {
	if b == nil {
		return 0
	}
	end := b.t.Now()
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	b.write(Event{TS: start, Dur: dur, Arg: arg, Name: name, Cat: cat, Ph: PhaseSpan})
	return end
}

// Instant records a point-in-time marker at the current instant. No-op on
// the nil handle.
func (b *Buf) Instant(name, cat string, arg int64) {
	if b == nil {
		return
	}
	b.write(Event{TS: b.t.Now(), Arg: arg, Name: name, Cat: cat, Ph: PhaseInstant})
}

// Anomaly records an instant marker and, in flight-recorder mode, dumps
// the rings' current tail to the flight file (rate-limited by MaxDumps).
// No-op on the nil handle.
func (b *Buf) Anomaly(name string, arg int64) {
	if b == nil {
		return
	}
	b.Instant(name, "anomaly", arg)
	b.t.dumpFlight(name)
}

// write stores one event. In flight mode (no stream) a full ring wraps,
// overwriting the oldest slot; in stream mode a full ring flushes to the
// JSON writer first, so no event is lost. The retry loop runs at most
// twice: after a flush the ring is empty.
func (b *Buf) write(e Event) {
	for {
		b.mu.Lock()
		if b.count < len(b.ev) || b.t.stream == nil {
			b.ev[b.next] = e
			b.next++
			if b.next == len(b.ev) {
				b.next = 0
			}
			if b.count < len(b.ev) {
				b.count++
			}
			b.total++
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.t.flushBuf(b)
	}
}

// snapshot appends the ring's events in write order to dst and returns it.
// Callers hold no locks on b; snapshot takes b.mu.
func (b *Buf) snapshot(dst []Event) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked(dst)
}

// reset empties the ring. Callers hold b.mu.
func (b *Buf) resetLocked() {
	b.next = 0
	b.count = 0
}

// itoa is a minimal non-negative integer formatter, avoiding a strconv
// import in the handle path (used only off the hot path).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
