package main

// perLayer lists every per-layer metric the traced run reports, with its
// unit. Each workload fills the rows of the layers it exercises; a layer a
// workload bypasses reads 0 there (BENCHMARK.json records which workload
// bypasses which layer).
var perLayer = []struct{ name, unit string }{
	{"trace.overhead_pct", "%"},
	{"table3.prog_alone_ms", "ms"},
	{"table3.prog_logging_ms", "ms"},
	{"table3.prog_vyrd_ms", "ms"},
	{"table3.vyrd_offline_ms", "ms"},
	{"harness.alone_ns_per_method", "ns/method"},
	{"wal.capture_ns_per_entry", "ns/entry"},
	{"wal.blocked_waits_per_kentry", "waits/kentry"},
	{"wal.max_verifier_lag", "entries"},
	{"wal.peak_retained_entries", "entries"},
	{"core.online_ns_per_entry", "ns/entry"},
	{"core.view_ns_per_entry", "ns/entry"},
	{"core.io_ns_per_entry", "ns/entry"},
	{"core.multi_ns_per_entry", "ns/entry"},
	{"core.allocs_per_entry", "allocs/entry"},
	{"linearize.ns_per_entry", "ns/entry"},
	{"linearize.states_per_op", "states/op"},
	{"ltl.ns_per_entry", "ns/entry"},
	{"event.encode_ns_per_entry", "ns/entry"},
	{"event.decode_ns_per_entry", "ns/entry"},
	{"event.bytes_per_entry", "B/entry"},
	{"remote.session_ns_per_entry", "ns/entry"},
	{"remote.engine_ns_per_entry", "ns/entry"},
	{"remote.unattributed_ns_per_entry", "ns/entry"},
	{"remote.write_ns_per_entry", "ns/entry"},
	{"remote.peak_buffered", "entries"},
	{"remote.short_session_ms", "ms"},
	{"fleet.slices_per_session", "slices/session"},
	{"explore.schedules_to_violation", "schedules"},
	{"explore.classes_per_schedule", "classes/schedule"},
	{"explore.pruned_per_schedule", "pruned/schedule"},
	{"explore.verify_ns_per_schedule", "ns/schedule"},
	{"sched.run_ns_per_schedule", "ns/schedule"},
}

// layerMetrics renders a workload's per-layer values as the full metric
// set, with 0 for the layers it bypasses. It panics on a name missing from
// perLayer: that is a bug in the workload code, not a run-time condition.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("perfbench: per-layer metric " + name + " is not declared in perLayer")
		}
	}
	return out
}

// perSecond returns n per second, or 0 for an empty interval.
func perSecond(n int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(n) / seconds
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
