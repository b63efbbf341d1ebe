package main

import (
	"fmt"
	"strings"
)

// metricDef describes one reported metric. The end-to-end and per-layer
// lists match BENCHMARK.json at the repository root.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"tx_per_s", "1/s", "higher", 0.25},
	{"task_p50_s", "s", "lower", 0.25},
	{"task_tail_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// The engines the workloads run, by the layer that implements them, with
// the function a sweep task enters them through. affine-async is in no
// workload.
var engineLayers = []struct{ layer, algorithm, entry string }{
	{"gossip", "boyd", "geogossip/internal/gossip.RunBoyd"},
	{"gossip", "push-sum", "geogossip/internal/gossip.RunPushSum"},
	{"gossip", "geographic", "geogossip/internal/gossip.RunGeographic"},
	{"core", "affine-hierarchical", "geogossip/internal/core.RunRecursive"},
}

func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	for _, l := range layers {
		out = append(out, metricDef{Name: "setup." + l + ".self_s", Unit: "s", Better: "lower"})
	}
	for _, e := range engineLayers {
		out = append(out,
			metricDef{Name: e.layer + "." + e.algorithm + ".cpu_s", Unit: "s", Better: "lower"},
			metricDef{Name: e.layer + "." + e.algorithm + ".ns_per_tx", Unit: "ns", Better: "lower"})
	}
	return append(out,
		metricDef{Name: "sim.ticks", Unit: "count", Better: "lower"},
		metricDef{Name: "routing.route_lookups", Unit: "count", Better: "lower"},
		metricDef{Name: "routing.route_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "channel.losses", Unit: "count", Better: "lower"},
		metricDef{Name: "channel.lost_tx_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "channel.arq_retx", Unit: "count", Better: "lower"},
		metricDef{Name: "channel.arq_timeouts", Unit: "count", Better: "lower"},
		metricDef{Name: "channel.churn_crashes", Unit: "count", Better: "lower"},
		metricDef{Name: "core.far_exchanges", Unit: "count", Better: "lower"},
		metricDef{Name: "core.reelections", Unit: "count", Better: "lower"},
		metricDef{Name: "gossip.resyncs", Unit: "count", Better: "lower"},
		metricDef{Name: "netstore.builds", Unit: "count", Better: "lower"},
		metricDef{Name: "netstore.loads", Unit: "count", Better: "higher"},
		metricDef{Name: "netstore.bytes_written", Unit: "bytes", Better: "lower"},
		metricDef{Name: "setup.netstore.builds", Unit: "count", Better: "lower"},
		metricDef{Name: "setup.netstore.bytes_written", Unit: "bytes", Better: "lower"},
		metricDef{Name: "sweep.slot_busy_frac", Unit: "ratio", Better: "higher"},
		metricDef{Name: "dist.reissued_leases", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "profile.overhead_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	)
}

// sumMetric adds every series of the named metric in a report's Metrics,
// whatever its labels.
func sumMetric(m map[string]float64, name string) float64 {
	var total float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// counterMetrics reads the per-layer counts of one pass from its report.
// They are deterministic: every timed pass of a run reports the same.
func counterMetrics(p *passResult) map[string]float64 {
	out := make(map[string]float64)
	r := p.report
	for _, m := range []struct{ name, metric string }{
		{"sim.ticks", "geogossip_ticks_total"},
		{"channel.losses", "geogossip_losses_total"},
		{"channel.lost_tx", "geogossip_loss_transmissions_total"},
		{"channel.arq_retx", "geogossip_arq_retransmissions_total"},
		{"channel.arq_timeouts", "geogossip_arq_timeouts_total"},
		{"channel.churn_crashes", "geogossip_churn_crashes_total"},
		{"core.far_exchanges", "geogossip_far_exchanges_total"},
		{"core.reelections", "geogossip_reelections_total"},
		{"gossip.resyncs", "geogossip_resyncs_total"},
	} {
		out[m.name] = sumMetric(r.Metrics, m.metric)
	}
	route, net := r.RouteCache, r.NetBuild
	if tx := p.transmissions(); tx > 0 {
		out["channel.lost_tx_frac"] = out["channel.lost_tx"] / float64(tx)
	}
	delete(out, "channel.lost_tx")
	out["routing.route_lookups"] = float64(route.RouteHits + route.RouteMisses)
	out["routing.route_hit_ratio"] = route.RouteHitRate()
	out["netstore.networks"] = float64(net.Networks)
	out["netstore.builds"] = float64(net.Networks - net.Loads)
	out["netstore.loads"] = float64(net.Loads)
	out["netstore.bytes_written"] = float64(net.StoreBytes)
	out["dist.reissued_leases"] = p.reissued
	return out
}

// engineCPU returns, per engine, the CPU seconds of the profiled pass p
// spent inside the engine, and those CPU nanoseconds per transmission the
// engine's tasks made.
func engineCPU(p *passResult, prof profileSplit) map[string]float64 {
	tx := make(map[string]uint64)
	for _, r := range p.results() {
		tx[r.Algorithm] += r.Transmissions
	}
	out := make(map[string]float64)
	for _, e := range engineLayers {
		prefix := e.layer + "." + e.algorithm
		cpu := prof.inside[e.entry]
		out[prefix+".cpu_s"] = cpu
		if tx[e.algorithm] > 0 {
			out[prefix+".ns_per_tx"] = cpu * 1e9 / float64(tx[e.algorithm])
			if cpu == 0 {
				// The engine ran but no sample names its entry: a rename
				// would otherwise read as an engine that costs nothing.
				fmt.Printf("warning: no profile samples inside %s\n", e.entry)
			}
		}
	}
	return out
}
