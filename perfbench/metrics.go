package main

import (
	"math"
	"sort"
)

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

type metricSpec struct{ name, unit string }

// perLayer lists the metrics of a traced run. The first group are the
// workload-level results (taken from the traced run's untraced
// iterations); the rest are per layer. A layer a workload bypasses
// reads 0; a counter the workload cannot observe from outside reads -1.
var perLayer = []metricSpec{
	{"records_per_s", "1/s"},
	{"obs_per_s", "1/s"},
	{"sim_events_per_s", "1/s"},
	{"table5_mae_pts", "pts"},
	{"accuracy_pct", "%"},
	{"sim_time_ms", "ms"},
	{"sim_p50_ns", "ns"},
	{"sim_p99_ns", "ns"},
	{"fail_frac", "ratio"},

	{"sim.events", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_event", "ns"},

	{"network.msgs", "count"},
	{"network.data_msgs", "count"},
	{"network.local_msgs", "count"},
	{"network.fault_dropped", "count"},
	{"network.fault_duplicated", "count"},
	{"network.self_s", "s"},

	{"reliable.data_sent", "count"},
	{"reliable.retransmits", "count"},
	{"reliable.dups_discarded", "count"},
	{"reliable.held_out_of_order", "count"},
	{"reliable.retx_ratio", "ratio"},
	{"reliable.self_s", "s"},

	{"stache.dir_transactions", "count"},
	{"stache.dir_invals", "count"},
	{"stache.dir_queued", "count"},
	{"stache.dir_overflows", "count"},
	{"stache.dir_wide_invals", "count"},
	{"stache.cache_misses", "count"},
	{"stache.cache_invals", "count"},
	{"stache.self_s", "s"},

	{"workload.accesses", "count"},
	{"workload.gen_s", "s"},
	{"workload.self_s", "s"},

	{"machine.new_s", "s"},
	{"machine.run_s", "s"},
	{"machine.self_s", "s"},

	{"trace.records", "count"},
	{"trace.bytes", "bytes"},
	{"trace.decode_s", "s"},
	{"trace.self_s", "s"},

	{"core.observes", "count"},
	{"core.observe_ns", "ns"},
	{"core.pht_entries", "count"},
	{"core.self_s", "s"},

	{"stats.records", "count"},
	{"stats.eval_s", "s"},
	{"stats.eval_serial_s", "s"},
	{"stats.eval_sharded_s", "s"},
	{"stats.eval_stream_s", "s"},
	{"stats.self_s", "s"},

	{"experiments.capture_s", "s"},
	{"experiments.table5_s", "s"},
	{"experiments.table6_s", "s"},
	{"experiments.table7_s", "s"},
	{"experiments.table8_s", "s"},
	{"experiments.self_s", "s"},

	{"serve.applied", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"serve.timed_out", "count"},
	{"serve.checkpoints", "count"},
	{"serve.max_queue_depth", "count"},
	{"serve.wal_bytes", "bytes"},
	{"serve.snapshot_bytes", "bytes"},
	{"serve.recover_s", "s"},
	{"serve.self_s", "s"},

	{"invariant.self_s", "s"},
	{"speculate.self_s", "s"},

	{"chaos.seeds", "count"},
	{"chaos.events", "count"},
	{"chaos.messages", "count"},
	{"chaos.stalls", "count"},
	{"chaos.seed_p50_ms", "ms"},
	{"chaos.seed_p98_ms", "ms"},
	{"chaos.self_s", "s"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.allocs_spread_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.self_s", "s"},

	{"bench.self_s", "s"},
	{"bench.profile_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

// unobservable names the counters a workload cannot read from outside
// the program; they are reported as -1.
var unobservable = map[string][]string{
	// The serve cluster does not expose its network.
	"serve-dsmc": {"network.msgs", "network.data_msgs", "network.local_msgs", "network.fault_dropped", "network.fault_duplicated"},
}

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(workloadName string, rec Record, probe map[string]float64, budget Budget) (map[string]Metric, checkResult) {
	vals := map[string]float64{}
	// Workload-level results and deterministic counts: untraced medians.
	for k, v := range rec.Extra {
		vals[k] = v
	}
	its := rec.Iterations
	for k, v := range probe {
		vals[k] = v
	}
	// Self times are per traced iteration, like every other value.
	nTraced := float64(len(pick(its, true, func(Iteration) float64 { return 0 })))
	for _, l := range layers {
		vals[l+".self_s"] = budget.SelfS[l] / nTraced
	}
	vals["bench.profile_s"] = budget.TotalS / nTraced
	if ev := vals["sim.events"]; ev > 0 {
		vals["sim.ns_per_event"] = 1e9 * vals["sim.self_s"] / ev
	}
	if ds := vals["reliable.data_sent"]; ds > 0 {
		vals["reliable.retx_ratio"] = vals["reliable.retransmits"] / ds
	}
	if n := vals["core.observes"]; n > 0 {
		vals["core.observe_ns"] = 1e9 * vals["core.observe_s"] / n
	}
	delete(vals, "core.observe_s")

	allocs := pick(its, true, func(it Iteration) float64 { return it.Mem.Allocs })
	vals["runtime.allocs"] = median(allocs)
	vals["runtime.alloc_mb"] = median(pick(its, true, func(it Iteration) float64 { return it.Mem.AllocMB }))
	vals["runtime.gc_cycles"] = median(pick(its, true, func(it Iteration) float64 { return it.Mem.GCCycles }))
	vals["runtime.gc_pause_ms"] = median(pick(its, true, func(it Iteration) float64 { return it.Mem.GCPauseMs }))
	sort.Float64s(allocs)
	if m := median(allocs); m > 0 {
		vals["runtime.allocs_spread_pct"] = 100 * (allocs[len(allocs)-1] - allocs[0]) / m
	}

	untracedWall := median(pick(its, false, func(it Iteration) float64 { return it.WallS }))
	tracedWall := median(pick(its, true, func(it Iteration) float64 { return it.WallS }))
	vals["bench.trace_overhead_pct"] = 100 * (tracedWall - untracedWall) / untracedWall

	for _, k := range unobservable[workloadName] {
		vals[k] = -1
	}

	// The layer budget must account for every profile sample.
	var c checkResult
	var sum float64
	for _, l := range layers {
		sum += budget.SelfS[l]
	}
	c.add(math.Abs(sum-budget.TotalS) <= 1e-9*math.Max(1, budget.TotalS),
		"layer self times sum to %v s, profile total is %v s", sum, budget.TotalS)

	out := make(map[string]Metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
	}
	return out, c
}
