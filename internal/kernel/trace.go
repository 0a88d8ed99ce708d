package kernel

import "repro/internal/trace"

// Execution tracing shares the telemetry batch (metrics.go): the kernel
// never records per-event spans — FlushMetrics emits one coarse
// "kernel.batch" span per eventBatch committed events, covering the wall
// time the batch took and carrying the event count as its argument.
//
// Anomalies — ErrNoProgress and observer halts — mark the trace and, in
// flight-recorder mode, dump the ring tail (see internal/trace).

// grabTraceBuf binds a ring from the shared kernel track pool, or nil when
// tracing is disabled. Called once per kernel construction — off the hot
// path. Kernels share GOMAXPROCS rings round-robin, so a million-replica
// run does not grow the track registry.
func grabTraceBuf() *trace.Buf {
	return trace.Default().Kernel()
}
