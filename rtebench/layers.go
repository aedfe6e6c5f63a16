package main

import "strings"

// layerDef is one per-layer metric. README.md gives, for each, the
// end-to-end metric and workload it should move.
type layerDef struct{ name, unit string }

// perLayer is every metric a traced run reports, in report order. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0. "/op" values are per timed operation of the traced phase.
var perLayer = []layerDef{
	{"workload.generate_ms", "ms/setup"},

	{"core.stage.setup_ms", "ms/op"},
	{"core.stage.tasksets_ms", "ms/op"},
	{"core.stage.ecu_ms", "ms/op"},
	{"core.stage.bus_ms", "ms/op"},
	{"core.stage.chain_ms", "ms/op"},
	{"core.stage.reverify_ms", "ms/op"},
	{"core.reverify_recomputed", "count/op"},
	{"core.reverify_reused", "count/op"},
	{"core.reverify_reuse_ratio", "ratio"},

	{"sched.cache_hits", "count/op"},
	{"sched.cache_misses", "count/op"},
	{"sched.cache_dedup", "count/op"},
	{"sched.cache_hit_ratio", "ratio"},
	{"can.cache_hits", "count/op"},
	{"can.cache_misses", "count/op"},
	{"can.cache_dedup", "count/op"},
	{"can.cache_hit_ratio", "ratio"},
	{"flexray.cache_hits", "count/op"},
	{"flexray.cache_misses", "count/op"},
	{"flexray.cache_dedup", "count/op"},
	{"flexray.cache_hit_ratio", "ratio"},

	{"par.jobs", "count/op"},
	{"par.batches", "count/op"},
	{"par.queue_wait_ms", "ms/op"},
	{"par.busy_ms", "ms/op"},
	{"par.busy_workers_max", "count"},
	{"par.utilization", "ratio"},

	{"deploy.greedy_ms", "ms/op"},
	{"deploy.descend_ms", "ms/op"},
	{"deploy.anneal_ms", "ms/op"},
	{"deploy.moves_evaluated", "count/op"},
	{"deploy.moves_accepted", "count/op"},
	{"deploy.accept_ratio", "ratio"},
	{"deploy.us_per_move", "us"},
	{"deploy.descend_alloc_mb", "MB/call"},
	{"deploy.anneal_alloc_mb", "MB/call"},
	{"deploy.place_alloc_mb", "MB/call"},
	{"deploy.place_configs", "count/op"},
	{"deploy.place_ms_per_config", "ms"},

	{"rte.build_ms", "ms/call"},
	{"sim.events", "count/op"},
	{"sim.ns_per_event", "ns"},
	{"sim.queue_depth_max", "count"},
	{"sim.host_ms_per_virtual_s.first_half", "ms/vs"},
	{"sim.host_ms_per_virtual_s.second_half", "ms/vs"},
	{"osek.jobs_finished", "count/op"},
	{"can.frames_delivered", "count/op"},
	{"e2eprot.checks", "count/op"},
	{"obs.flight_on_off_ratio", "ratio"},

	{"experiments.e11_ms", "ms/op"},
	{"experiments.e12_ms", "ms/op"},
	{"experiments.e13_ms", "ms/op"},
	{"experiments.e14_observer_ms", "ms/op"},
	{"experiments.e14_switchover_ms", "ms/op"},
	{"experiments.e14_placement_ms", "ms/op"},

	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cycles", "count/op"},
	{"go.gc_pause_ms", "ms/op"},

	{"self.bench_ms", "ms/op"},
	{"self.core_ms", "ms/op"},
	{"self.deploy_ms", "ms/op"},
	{"self.rte_ms", "ms/op"},
	{"self.experiments_ms", "ms/op"},

	{"trace_overhead_ratio", "ratio"},
}

const mib = 1 << 20

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the traced phase's raw
// values. setups is the number of set-ups the run made.
func layerMetrics(l *layers, spans *tracer, setups int) map[string]float64 {
	r := l.raw
	ops := float64(max(l.ops, 1))
	perOp := func(key string, scale float64) float64 { return r[key] / scale / ops }
	m := map[string]float64{}

	m["workload.generate_ms"] = r["setup:ns:workload.GenerateVehicle"] / 1e6 / float64(setups)

	for _, st := range []string{"setup", "tasksets", "ecu", "bus", "chain", "reverify"} {
		m["core.stage."+st+"_ms"] = perOp("pipeline_stage_duration_ns{stage=verify/"+st+"}_sum", 1e6)
	}
	rec, reu := r["incremental_recomputed_total"], r["incremental_reused_total"]
	m["core.reverify_recomputed"] = rec / ops
	m["core.reverify_reused"] = reu / ops
	m["core.reverify_reuse_ratio"] = ratio(reu, rec+reu)

	for layer, label := range map[string]string{"sched": "rta", "can": "can", "flexray": "flexray"} {
		hits := r["analysis_cache_hits_total{cache="+label+"}"]
		misses := r["analysis_cache_misses_total{cache="+label+"}"]
		m[layer+".cache_hits"] = hits / ops
		m[layer+".cache_misses"] = misses / ops
		m[layer+".cache_dedup"] = perOp("analysis_cache_dedup_total{cache="+label+"}", 1)
		m[layer+".cache_hit_ratio"] = ratio(hits, hits+misses)
	}

	m["par.jobs"] = perOp("par_jobs_total", 1)
	m["par.batches"] = perOp("par_batches_total", 1)
	m["par.queue_wait_ms"] = perOp("par_queue_wait_ns_total", 1e6)
	m["par.busy_ms"] = perOp("par_busy_ns_total", 1e6)
	m["par.busy_workers_max"] = l.max["gauge:par_busy_workers_max"]
	m["par.utilization"] = ratio(r["par_busy_ns_total"], float64(l.timed.Nanoseconds())*float64(workers()))

	m["deploy.greedy_ms"] = perOp("ns:deploy.Greedy", 1e6)
	m["deploy.descend_ms"] = perOp("ns:deploy.Descend", 1e6)
	m["deploy.anneal_ms"] = perOp("ns:deploy.AnnealParallel", 1e6)
	evaluated, accepted := r["dse_moves_evaluated_total"], r["dse_moves_accepted_total"]
	m["deploy.moves_evaluated"] = evaluated / ops
	m["deploy.moves_accepted"] = accepted / ops
	m["deploy.accept_ratio"] = ratio(accepted, evaluated)
	m["deploy.us_per_move"] = ratio(r["ns:deploy.Descend"]/1e3, evaluated)
	for metric, call := range map[string]string{"descend": "deploy.Descend", "anneal": "deploy.AnnealParallel", "place": "deploy.PlaceReplicas"} {
		m["deploy."+metric+"_alloc_mb"] = ratio(r["alloc:"+call], r["calls:"+call]) / mib
	}
	m["deploy.place_configs"] = perOp("deploy.place_configs", 1)
	m["deploy.place_ms_per_config"] = ratio(r["ns:deploy.PlaceReplicas"]/1e6, r["deploy.place_configs"])

	m["rte.build_ms"] = ratio(r["setup:ns:rte.Build"]+r["ns:rte.Build"], r["setup:calls:rte.Build"]+r["calls:rte.Build"]) / 1e6
	m["sim.events"] = perOp("sim_events_executed_total", 1)
	m["sim.ns_per_event"] = ratio(r["ns:rte.Platform.Run"], r["sim_events_executed_total"])
	m["sim.queue_depth_max"] = l.max["gauge:sim_queue_depth"]
	m["osek.jobs_finished"] = perOp("osek.jobs_finished", 1)
	m["can.frames_delivered"] = perOp("can.frames_delivered", 1)
	var checks float64
	for k, v := range r {
		if strings.HasPrefix(k, "e2e_checks_total") {
			checks += v
		}
	}
	m["e2eprot.checks"] = checks / ops
	m["obs.flight_on_off_ratio"] = ratio(ratio(r["sim.flight_on.host_ns"], r["sim.flight_on.virtual_ns"]),
		ratio(r["sim.flight_off.host_ns"], r["sim.flight_off.virtual_ns"]))

	for metric, call := range map[string]string{
		"e11": "E11FaultCampaign", "e12": "E12DetectionCoverage", "e13": "E13Availability",
		"e14_observer": "E14Observer", "e14_switchover": "E14Switchover", "e14_placement": "E14Placement",
	} {
		m["experiments."+metric+"_ms"] = perOp("ns:experiments."+call, 1e6)
	}

	m["go.alloc_mb_per_op"] = float64(l.rt1.TotalAlloc-l.rt0.TotalAlloc) / mib / ops
	m["go.gc_cycles"] = float64(l.rt1.NumGC-l.rt0.NumGC) / ops
	m["go.gc_pause_ms"] = float64(l.rt1.PauseTotalNs-l.rt0.PauseTotalNs) / 1e6 / ops

	for layer, d := range spans.selfTimes() {
		m["self."+layer+"_ms"] = float64(d.Nanoseconds()) / 1e6 / ops
	}
	return m
}
