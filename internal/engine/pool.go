package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/rng"
)

// pool is one job's replica state, shared by the serial and parallel
// drivers, which differ only in how they hand replica indices to the one
// per-replica body, pool.replica.
type pool struct {
	job     Job
	streams []*rng.RNG
	records []Record
	errs    []error
	probe   *probe
	mu      sync.Mutex // serializes Progress calls
	done    int
}

// runPool runs the job's replicas and returns their records, indexed by
// replica. One worker runs them in order on the caller's goroutine; more
// take them from a feeder. On a replica error the remaining work is
// cancelled and a real backend failure is reported in preference to the
// cancellations it spread; with several independently failing replicas the
// one reported may vary with scheduling (successful runs stay bit-for-bit
// deterministic — only the error path is schedule-dependent).
func runPool(ctx context.Context, job Job, streams []*rng.RNG, p *probe) ([]Record, error) {
	n := len(streams)
	workers := job.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	pl := &pool{job: job, streams: streams, records: make([]Record, n), errs: make([]error, n), probe: p}
	if workers = min(workers, n); workers == 1 {
		pl.serial(ctx)
	} else {
		pl.parallel(ctx, workers)
	}
	if err := firstError(ctx, pl.errs); err != nil {
		return nil, err
	}
	return pl.records, nil
}

// replica runs replica i on worker w: instrument the start, run the
// backend, record the outcome, instrument the end, report progress.
func (pl *pool) replica(ctx context.Context, w *probeWorker, i int) error {
	w.start(i)
	rec, err := pl.job.Backend.RunReplica(ctx, i, pl.streams[i])
	if err != nil {
		err = fmt.Errorf("engine: job %q replica %d: %w", pl.job.Name, i, err)
		pl.errs[i] = err
	} else {
		pl.records[i] = rec
	}
	w.done(i, err)
	if err == nil && pl.job.Progress != nil {
		pl.mu.Lock()
		pl.done++
		pl.job.Progress(pl.done, len(pl.streams))
		pl.mu.Unlock()
	}
	return err
}

// serial runs the replicas in order until the first failure or cancel.
func (pl *pool) serial(ctx context.Context) {
	w := pl.probe.worker(0)
	for i := range pl.streams {
		if ctx.Err() != nil || pl.replica(ctx, &w, i) != nil {
			break
		}
	}
	w.close()
}

// parallel feeds replica indices to worker goroutines. A failure cancels
// the pool: the feeder stops, running replicas see the cancel, and an
// index received after it is drained unstarted, so it counts as neither
// started nor failed.
func (pl *pool) parallel(ctx context.Context, workers int) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pl.probe.queue(len(pl.streams))
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pw := pl.probe.worker(w)
			for i := range indices {
				if ctx.Err() == nil && pl.replica(ctx, &pw, i) != nil {
					cancel()
				}
			}
			pw.close()
		}(w)
	}
feed:
	for i := range pl.streams {
		pl.probe.handOut(i)
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()
}

// firstError returns the lowest-replica real failure, skipping the bare
// cancellations an earlier failure (or the caller's cancel) spread to other
// replicas. When every error is a cancellation, the parent context's error
// wins so a user cancel surfaces as such.
func firstError(ctx context.Context, errs []error) error {
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return cancelled
}
