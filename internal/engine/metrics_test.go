package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// TestPoolMetricsDeterministicCounts: the count-valued pool metrics —
// replicas started/completed/failed, busy and queue-wait histogram counts —
// are exact and identical at any worker-pool size, even though the timing
// values inside them are wall-clock dependent. This is the metrics half of
// the engine determinism contract.
func TestPoolMetricsDeterministicCounts(t *testing.T) {
	defer telemetry.SetDefault(nil)
	const replicas = 24
	for _, workers := range []int{1, 4} {
		reg := telemetry.New()
		telemetry.SetDefault(reg)
		job := Job{
			Name: "metrics",
			Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
				return Sample{"x": float64(rep)}, nil
			}},
			Replicas: replicas,
			Seed:     1,
			Workers:  workers,
		}
		if _, err := Run(context.Background(), job); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		if got := snap.Counters[telemetry.EngineJobs]; got != 1 {
			t.Errorf("workers=%d: jobs = %d, want 1", workers, got)
		}
		for _, c := range []struct {
			name string
			want uint64
		}{
			{telemetry.EngineReplicasStarted, replicas},
			{telemetry.EngineReplicasCompleted, replicas},
			{telemetry.EngineReplicasFailed, 0},
		} {
			if got := snap.Counters[c.name]; got != c.want {
				t.Errorf("workers=%d: %s = %d, want %d", workers, c.name, got, c.want)
			}
		}
		if got := snap.Histograms[telemetry.EngineReplicaBusyNS].Count; got != replicas {
			t.Errorf("workers=%d: busy histogram count = %d, want %d", workers, got, replicas)
		}
		if got := snap.Histograms[telemetry.EngineQueueWaitNS].Count; got != replicas {
			t.Errorf("workers=%d: wait histogram count = %d, want %d", workers, got, replicas)
		}
		// Per-worker labeled busy series exist for every pool slot.
		for w := 0; w < workers; w++ {
			name := telemetry.Labeled(telemetry.EngineWorkerBusyNS, "worker", fmt.Sprint(w))
			if _, ok := snap.Counters[name]; !ok {
				t.Errorf("workers=%d: missing labeled series %s", workers, name)
			}
		}
	}
}

// TestPoolMetricsFailures: a failing replica lands in the failed counter,
// and started counts exactly the replicas that ran. On the parallel pool,
// replicas handed out after the failure are drained without being started,
// so the counts do not depend on the schedule: replicas 0-2 block until
// the failure of replica 3 cancels the pool, then succeed.
func TestPoolMetricsFailures(t *testing.T) {
	defer telemetry.SetDefault(nil)
	boom := errors.New("boom")
	run := func(workers, replicas int, fn func(ctx context.Context, rep int) error) telemetry.Snapshot {
		t.Helper()
		reg := telemetry.New()
		telemetry.SetDefault(reg)
		_, err := Run(context.Background(), Job{
			Name: "failing",
			Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
				if err := fn(ctx, rep); err != nil {
					return nil, err
				}
				return Sample{"x": 1}, nil
			}},
			Replicas: replicas,
			Seed:     1,
			Workers:  workers,
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		return reg.Snapshot()
	}

	// Serial: stops handing out work at the first failure.
	snap := run(1, 8, func(ctx context.Context, rep int) error {
		if rep == 3 {
			return boom
		}
		return nil
	})
	if got := snap.Counters[telemetry.EngineReplicasFailed]; got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if got := snap.Counters[telemetry.EngineReplicasStarted]; got != 4 {
		t.Errorf("started = %d, want 4 (replicas 0-3)", got)
	}
	if got := snap.Counters[telemetry.EngineReplicasCompleted]; got != 3 {
		t.Errorf("completed = %d, want 3", got)
	}

	bad := 0
	for trial := 0; trial < 20; trial++ {
		snap := run(4, 64, func(ctx context.Context, rep int) error {
			switch {
			case rep < 3:
				<-ctx.Done()
			case rep == 3:
				return boom
			}
			return nil
		})
		started := snap.Counters[telemetry.EngineReplicasStarted]
		completed := snap.Counters[telemetry.EngineReplicasCompleted]
		failed := snap.Counters[telemetry.EngineReplicasFailed]
		if failed != 1 || started != completed+1 {
			bad++
			t.Logf("trial %d: started=%d completed=%d failed=%d", trial, started, completed, failed)
		}
	}
	if bad > 0 {
		t.Errorf("parallel pool: %d of 20 trials counted replicas it never ran (want failed == 1, started == completed+1)", bad)
	}
}

// TestPoolDisabledNoMetrics: with no registry installed the pool must not
// create one as a side effect.
func TestPoolDisabledNoMetrics(t *testing.T) {
	telemetry.SetDefault(nil)
	job := Job{
		Name: "off",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"x": 1}, nil
		}},
		Replicas: 4,
		Seed:     1,
		Workers:  2,
	}
	if _, err := Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if telemetry.Default() != nil {
		t.Error("pool installed a registry")
	}
}
