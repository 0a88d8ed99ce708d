package main

import (
	"sort"
	"strings"
)

// layerMetrics computes the per-layer metrics of one traced run from its
// spans (times) and its outcome (counts). Every workload reports every
// metric; a layer that did not run reports zeros.
func layerMetrics(spans []span, root int, out *outcome, workers int) metricList {
	sum := map[string]float64{} // seconds per span name
	var callbacks []float64     // engine callbacks: replicas and cells
	var cells []span
	for _, s := range spans {
		d := float64(s.dur()) / 1e9
		sum[s.Name] += d
		if s.Name == "engine.replica" || strings.HasSuffix(s.Name, ".cell") {
			callbacks = append(callbacks, d)
		}
		if strings.HasSuffix(s.Name, ".cell") {
			cells = append(cells, s)
		}
	}
	c := out.counts
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var l metricList

	l.put("markov.build_s", out.extra["markov.build_s"], "s")
	l.put("markov.solve_s", sum["markov.solve"], "s")
	l.put("markov.check_s", sum["markov.check"], "s")
	l.put("markov.states", c["markov.states"], "count")
	l.put("markov.iterations", c["markov.iterations"], "count")
	l.put("markov.ns_per_state_iter", per(sum["markov.solve"]*1e9, c["markov.state_iterations"]), "ns")
	l.put("markov.residual_max", out.extra["markov.residual_max"], "rate")
	l.put("markov.boundary_mass_max", out.extra["markov.boundary_mass_max"], "prob")
	l.put("markov.mean_n_rel_err_max", out.extra["markov.mean_n_rel_err_max"], "frac")

	simS := sum["sim.run"] + sum["sim.cell"]
	l.put("sim.run_s", simS, "s")
	l.put("sim.events", c["sim.events"], "count")
	l.put("sim.ns_per_event", per(simS*1e9, c["sim.events"]), "ns")

	l.put("peersim.setup_s", out.extra["peersim.setup_s"], "s")
	l.put("peersim.run_s", sum["peersim.step"], "s")
	l.put("peersim.events", c["peersim.events"], "count")
	l.put("peersim.ns_per_event", per(sum["peersim.step"]*1e9, c["peersim.events"]), "ns")
	l.put("peersim.peers", c["peersim.peers"], "count")

	l.put("hybrid.eval_s", sum["hybrid.cell"], "s")
	l.put("hybrid.cells", c["hybrid.cells"], "count")

	engineRun := sum["engine.run"] + sum["sweep.grid"]
	busy := 0.0
	for _, d := range callbacks {
		busy += d
	}
	l.put("engine.run_s", engineRun, "s")
	l.put("engine.busy_s", busy, "s")
	idle := 0.0
	if engineRun > 0 {
		idle = 1 - busy/(float64(workers)*engineRun)
	}
	l.put("engine.idle_frac", idle, "frac")
	l.put("engine.replicas", float64(len(callbacks)), "count")
	p50 := median(callbacks)
	pct, tailV, _, _ := tail(callbacks)
	l.put("engine.replica_s_p50", p50, "s")
	l.put("engine.replica_s_tail", tailV, "s")
	l.put("engine.replica_s_tail_pct", pct, "pct")
	l.put("engine.straggler_ratio", per(maxOf(callbacks), p50), "ratio")
	l.put("engine.sink_s", sum["engine.sink"], "s")

	evaluated := c["sweep.cells_evaluated"]
	l.put("sweep.eval_s", sum["sweep.grid"], "s")
	l.put("sweep.cells_evaluated", evaluated, "count")
	l.put("sweep.cache_hits", c["sweep.cache_hits"], "count")
	l.put("sweep.rounds", c["sweep.rounds"], "count")
	l.put("sweep.round_idle_frac", roundIdle(cells, workers), "frac")
	l.put("sweep.useful_ratio", per(c["sweep.boundary_cells"], evaluated), "ratio")
	l.put("sweep.mc_theorem1_checked", c["sweep.mc_theorem1_checked"], "count")
	l.put("sweep.mc_theorem1_disagree", c["sweep.mc_theorem1_disagree"], "count")

	l.put("stability.eval_s", sum["stability.cell"], "s")
	l.put("stability.cells", c["stability.cells"], "count")

	l.put("store.rows_written", c["store.rows_written"], "count")
	l.put("store.bytes", c["store.bytes"], "bytes")
	l.put("store.write_s", sum["store.write"], "s")
	l.put("store.scan_s", sum["store.scan"], "s")
	l.put("store.scan_rows_per_s", per(c["store.rows_scanned"], sum["store.scan"]), "1/s")
	l.put("store.export_s", sum["store.export"], "s")

	self, un := selfTimes(spans, root)
	total := float64(spans[root].dur())
	for _, layer := range layers {
		l.put(layer+".self_s", self[layer]/1e9, "s")
	}
	l.put("trace.unattributed_frac", per(un, total), "frac")
	return l
}

// roundIdle is the idle share of the worker pool inside refinement rounds.
// A round is a maximal stretch in which some cell is being evaluated, so
// it runs from the round's first cell start to its straggler's end; the
// pool is idle for the worker time in it not spent evaluating.
func roundIdle(cells []span, workers int) float64 {
	if len(cells) == 0 {
		return 0
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Start < cells[j].Start })
	var covered, busy float64
	start, end := cells[0].Start, cells[0].End
	for _, s := range cells {
		busy += float64(s.dur())
		if s.Start > end {
			covered += float64(end - start)
			start, end = s.Start, s.End
		} else if s.End > end {
			end = s.End
		}
	}
	covered += float64(end - start)
	return 1 - busy/(float64(workers)*covered)
}
