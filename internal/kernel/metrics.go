package kernel

import "repro/internal/telemetry"

// eventBatch is how many committed events a kernel accumulates before
// flushing them in one go: one atomic add to the telemetry registry and
// one "kernel.batch" span to the trace ring (trace.go). Batching keeps the
// per-event cost to a single compare against flushAt, whether telemetry,
// tracing, both or neither are bound (TestInstrumentationOverhead gates
// each within 2% of the uninstrumented loop), at the price of live
// counters lagging a running replica by < eventBatch events. Exact totals
// are restored by FlushMetrics, which every simulator's run loop calls on
// exit.
const eventBatch = 1024

// metrics holds the kernel's telemetry handles. The zero value (telemetry
// disabled) makes every operation an inlined nil-check no-op.
type metrics struct {
	events     telemetry.Count
	halts      telemetry.Count
	noProgress telemetry.Count
}

// grabMetrics binds counter shards from the default registry, or returns
// the zero (no-op) set when telemetry is disabled. Called once per kernel
// construction — off the hot path.
func grabMetrics() metrics {
	reg := telemetry.Default()
	if reg == nil {
		return metrics{}
	}
	return metrics{
		events:     reg.Counter(telemetry.KernelEvents).Grab(),
		halts:      reg.Counter(telemetry.KernelHalts).Grab(),
		noProgress: reg.Counter(telemetry.KernelNoProgress).Grab(),
	}
}

// FlushMetrics pushes the events committed since the last flush to the
// telemetry registry, making the process-wide kernel_events_total exact,
// and emits them as one "kernel.batch" span on the trace ring, so the
// trace accounts for every committed event exactly once. Step calls it on
// the batch boundary and simulators when a run loop exits; it is
// idempotent (no empty span) and a no-op when neither telemetry nor
// tracing was bound at New.
func (k *Kernel) FlushMetrics() {
	if k.flushAt == noFlush || k.events == k.mark {
		return
	}
	n := k.events - k.mark
	k.met.events.Add(n)
	k.trcT0 = k.trc.Span("kernel.batch", "kernel", k.trcT0, int64(n))
	k.mark = k.events
	k.flushAt = k.events + eventBatch
}
