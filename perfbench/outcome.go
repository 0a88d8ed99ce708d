package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
)

// maxProblems bounds how many failed checks one outcome keeps verbatim.
const maxProblems = 20

// outcome is what one run of a workload's job produced: its operations
// and their failures, a digest of its deterministic answers, and the
// counts ratios are built from.
type outcome struct {
	ops, failed int
	problems    []string
	digest      hash.Hash
	// counts holds deterministic per-layer counts by metric name
	// ("markov.states", "store.rows_written", …).
	counts map[string]float64
	// events is the number of kernel events the job ran (trajectory,
	// large-n), cells the number of cells it evaluated (phasemap).
	events, cells float64
	// cellLat holds the latency of every cell evaluation, in seconds.
	cellLat []float64
	// extra holds per-layer values that are not counts, such as the
	// largest solver residual.
	extra map[string]float64
	// checks run after the job's clock stops: comparisons the benchmark
	// makes, as opposed to the program's work, are not timed.
	checks []func() error
}

func newOutcome() *outcome {
	return &outcome{digest: sha256.New(), counts: map[string]float64{}, extra: map[string]float64{}}
}

// op records one attempted operation and, when ok is false, its failure.
func (o *outcome) op(ok bool, format string, args ...any) {
	o.ops++
	if !ok {
		o.fail(format, args...)
	}
}

// fail records a failure of an operation already counted.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// later queues a check to run once the job is timed.
func (o *outcome) later(check func() error) { o.checks = append(o.checks, check) }

// runChecks runs the queued checks.
func (o *outcome) runChecks() error {
	for _, c := range o.checks {
		if err := c(); err != nil {
			return err
		}
	}
	o.checks = nil
	return nil
}

// answer folds a deterministic answer into the digest.
func (o *outcome) answer(format string, args ...any) {
	fmt.Fprintf(o.digest, format, args...)
	o.digest.Write([]byte{'\n'})
}

func (o *outcome) sum() string { return hex.EncodeToString(o.digest.Sum(nil)) }

// add accumulates a count.
func (o *outcome) add(name string, v float64) { o.counts[name] += v }

// setMax keeps the largest value seen under name.
func (o *outcome) setMax(name string, v float64) {
	if cur, ok := o.extra[name]; !ok || v > cur {
		o.extra[name] = v
	}
}

// fileSize returns the size of path in bytes.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// freshDir creates an empty directory named name under parent.
func freshDir(parent, name string) (string, error) {
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
