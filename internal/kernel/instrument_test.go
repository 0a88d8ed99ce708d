package kernel

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/racegate"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestKernelMetricsExact: the batched kernel_events_total is exact after
// FlushMetrics regardless of where the run stops relative to the batch
// boundary, and halts / no-progress land in their counters immediately.
func TestKernelMetricsExact(t *testing.T) {
	defer telemetry.SetDefault(nil)
	for _, steps := range []int{1, eventBatch - 1, eventBatch, eventBatch + 1, 3*eventBatch + 17} {
		reg := telemetry.New()
		telemetry.SetDefault(reg)
		p := &birthDeath{lambda: 2, mu: 1, n: 100}
		k := New(rng.New(1), p)
		for i := 0; i < steps; i++ {
			if err := k.Step(); err != nil {
				t.Fatalf("steps=%d: %v", steps, err)
			}
		}
		k.FlushMetrics()
		if got := reg.CounterValue(telemetry.KernelEvents); got != uint64(steps) {
			t.Errorf("steps=%d: kernel_events_total = %d", steps, got)
		}
		k.FlushMetrics() // idempotent
		if got := reg.CounterValue(telemetry.KernelEvents); got != uint64(steps) {
			t.Errorf("steps=%d: double flush changed the counter to %d", steps, got)
		}
	}

	// ErrNoProgress increments its counter and flushes the batch remainder.
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	dead := &birthDeath{lambda: 0, mu: 0, n: 0}
	k := New(rng.New(1), dead)
	if err := k.Step(); err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if got := reg.CounterValue(telemetry.KernelNoProgress); got != 1 {
		t.Errorf("kernel_no_progress_total = %d, want 1", got)
	}
}

// TestKernelTraceBatches: batch spans cover every committed event exactly
// once — the per-1024 boundary in Step plus the FlushMetrics remainder —
// and anomalies dump the flight recorder.
func TestKernelTraceBatches(t *testing.T) {
	dir := t.TempDir()
	for _, steps := range []int{1, eventBatch - 1, eventBatch, eventBatch + 1, 3*eventBatch + 17} {
		path := filepath.Join(dir, "f.json")
		tr := trace.New(trace.Config{FlightPath: path})
		trace.SetDefault(tr)
		p := &birthDeath{lambda: 2, mu: 1, n: 100}
		k := New(rng.New(1), p)
		trace.SetDefault(nil)
		for i := 0; i < steps; i++ {
			if err := k.Step(); err != nil {
				t.Fatalf("steps=%d: %v", steps, err)
			}
		}
		k.FlushMetrics()
		if k.mark != uint64(steps) {
			t.Errorf("steps=%d: trace covered %d events", steps, k.mark)
		}
		k.FlushMetrics() // idempotent: no empty batch span
		if k.mark != uint64(steps) {
			t.Errorf("steps=%d: double flush moved the mark to %d", steps, k.mark)
		}
	}

	// ErrNoProgress marks the trace and dumps the flight recorder.
	path := filepath.Join(dir, "noprogress.json")
	tr := trace.New(trace.Config{FlightPath: path})
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)
	dead := &birthDeath{lambda: 0, mu: 0, n: 0}
	k := New(rng.New(1), dead)
	if err := k.Step(); err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if tr.Dumps() != 1 {
		t.Errorf("no-progress dumps = %d, want 1", tr.Dumps())
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("flight file missing: %v", err)
	}
}

// TestStepAllocsSteadyState gates the instrumented event loop at zero heap
// allocations: with a telemetry registry and a flight-recorder tracer
// bound, 2048 steps cross two batch boundaries, so the counter add and the
// span write are both inside the measured window. Skipped under -race,
// whose instrumentation allocates on its own.
func TestStepAllocsSteadyState(t *testing.T) {
	if racegate.Enabled {
		t.Skip("allocation gate needs a non-race build")
	}
	telemetry.SetDefault(telemetry.New())
	trace.SetDefault(trace.New(trace.Config{FlightPath: filepath.Join(t.TempDir(), "f.json")}))
	k := New(rng.New(1), &birthDeath{lambda: 2, mu: 1, n: 100})
	telemetry.SetDefault(nil)
	trace.SetDefault(nil)
	if !k.met.events.Live() || k.trc == nil {
		t.Fatal("kernel bound no instrumentation")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2*eventBatch; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented Step allocates %v allocs per %d events, want 0", allocs, 2*eventBatch)
	}
}
