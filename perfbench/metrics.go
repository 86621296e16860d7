package main

// endToEnd lists the end-to-end metrics every untraced run reports, on
// every workload. Each means the same thing across workloads; README.md
// maps it to the per-workload names (round_p50_ms, serve_p50_ms, ...).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"time_to_model_s", "s"},
	{"wire_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = []struct{ name, unit string }{
	{"core.worker.update_p50_ms", "ms"},
	{"core.worker.compute_stats_p50_ms", "ms"},
	{"core.master.self_p50_ms", "ms"},
	{"core.master.setup_self_s", "s"},
	{"core.eval_p50_ms", "ms"},
	{"rowsgd.worker.neededDims_p50_ms", "ms"},
	{"rowsgd.worker.computeGradSparse_p50_ms", "ms"},
	{"rowsgd.master.self_p50_ms", "ms"},
	{"rowsgd.master.setup_self_s", "s"},
	{"rowsgd.eval_p50_ms", "ms"},
	{"cluster.transport_p50_ms", "ms"},
	{"cluster.calls_per_round", "count"},
	{"cluster.setup_bytes", "B"},
	{"cluster.setup_call_s", "s"},
	{"driver.fanout_skew_p99_ms", "ms"},
	{"driver.retries", "count"},
	{"driver.restarts", "count"},
	{"serve.queue_p99_ms", "ms"},
	{"serve.score_p99_ms", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.frontend_self_p50_ms", "ms"},
	{"persist.load_p50_ms", "ms"},
	{"serve.install_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"serve.shard_retries", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_pct", "%"},
}

// layers emits per-layer metrics.
type layers struct{ rep *report }

func newLayers(rep *report) layers { return layers{rep} }

// add reports one layer metric; a layer the workload does not exercise
// reads 0 and is marked n/a in the table.
func (l layers) add(name, unit string, v float64, applies bool) {
	if !applies {
		l.rep.set(name, unit, 0)
		l.rep.na(name)
		return
	}
	l.rep.set(name, unit, v)
	l.rep.show(name, unit, v, "")
}

// finish reports every per-layer metric not yet set as not applicable.
func (l layers) finish() {
	for _, m := range perLayer {
		if _, ok := l.rep.Metrics[m.name]; !ok {
			l.add(m.name, m.unit, 0, false)
		}
	}
}
