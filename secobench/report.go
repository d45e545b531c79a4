package main

import (
	"math"
	"sort"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_query", "count"},
	{"alloc_bytes_per_query", "B"},
	{"heap_live_mb", "MB"},
	{"calls_per_query", "count"},
	{"sim_ms_mean", "ms"},
}

// perLayer is what the traced run reports.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"latency_ms_p99", "ms"},
	{"latency_limit_met", "0/1"},
	{"bench.self_ms", "ms"},
	{"query.parse_us", "us"},
	{"query.analyze_us", "us"},
	{"query.self_ms", "ms"},
	{"optimizer.optimize_ms", "ms"},
	{"optimizer.self_ms", "ms"},
	{"optimizer.plans_explored", "count"},
	{"optimizer.prefixes_pruned", "count"},
	{"optimizer.prune_ratio", "ratio"},
	{"plan.annotate_us", "us"},
	{"plancheck.check_us", "us"},
	{"engine.execute_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.invocations_per_query", "count"},
	{"engine.calls_saved_per_query", "count"},
	{"engine.halted_share", "ratio"},
	{"engine.results_per_call", "ratio"},
	{"service.busy_ms_per_query", "ms"},
	{"service.self_ms", "ms"},
	{"service.invoke_us", "us"},
	{"service.wire_calls_per_query", "count"},
	{"service.tuples_per_fetch", "count"},
	{"service.wire_per_engine_call", "ratio"},
	{"serve.handler_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.response_bytes", "B"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"admission.admit_share", "ratio"},
	{"admission.degrade_share", "ratio"},
	{"admission.reject_share", "ratio"},
	{"loadgen.late_ms_p99", "ms"},
	{"runtime.gc_cycles_per_1k_queries", "count"},
	{"trace.untraced_ms_p50", "ms"},
	{"trace.traced_ms_p50", "ms"},
	{"trace.untraced_ms_mean", "ms"},
	{"trace.traced_ms_mean", "ms"},
	{"trace.self_sum_ms", "ms"},
	{"trace.spans_per_query", "count"},
}

// latencyLimitMS is serve-warm's latency limit on latency_ms_p99, taken
// over every request of the traced run.
const latencyLimitMS = 50

// counters are cumulative counts read from a target around the window.
type counters struct {
	engineCalls, engineInvocations int64
	wireFetches, wireTuples        int64
	cacheHits, cacheMisses         int64
}

func countersOf(tg target) counters {
	var c counters
	if w := tg.wire(); w != nil {
		c.wireFetches, c.wireTuples = w.fetches.Load(), w.tuples.Load()
	}
	// Served runs happen inside the servers; their engine-side counts
	// live in the servers' registries.
	if s, ok := tg.(*serveWarm); ok {
		c.engineCalls, c.engineInvocations = s.engineCalls()
		c.cacheHits, c.cacheMisses = s.planCache()
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		engineCalls: c.engineCalls - o.engineCalls, engineInvocations: c.engineInvocations - o.engineInvocations,
		wireFetches: c.wireFetches - o.wireFetches, wireTuples: c.wireTuples - o.wireTuples,
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
	}
}

// measure computes every metric of a window; run keeps the ones its mode
// reports.
func measure(w workload, win *window, d counters, setupS float64) map[string]float64 {
	n := float64(win.attempted)
	calls, invocations := float64(win.calls), float64(win.invocations)
	if w.open {
		calls, invocations = float64(d.engineCalls), float64(d.engineInvocations)
	}
	all := append(append([]float64(nil), win.latUntraced...), win.latTraced...)
	m := map[string]float64{
		"setup_s": setupS,
		"throughput_qps": perSlice(win, func(s sliceTally, u usage) float64 {
			return float64(s.ok) / u.wall.Seconds()
		}),
		"latency_ms_p50": perSlice(win, func(s sliceTally, _ usage) float64 { return percentile(s.lat, 50) }),
		"latency_ms_p90": perSlice(win, func(s sliceTally, _ usage) float64 { return percentile(s.lat, 90) }),
		"cpu_ms_per_query": perSlice(win, func(s sliceTally, u usage) float64 {
			return ratio(float64(u.cpu)/1e6, float64(s.attempted))
		}),
		"allocs_per_query": perSlice(win, func(s sliceTally, u usage) float64 {
			return ratio(float64(u.mallocs), float64(s.attempted))
		}),
		"alloc_bytes_per_query": perSlice(win, func(s sliceTally, u usage) float64 {
			return ratio(float64(u.bytes), float64(s.attempted))
		}),
		"heap_live_mb":    float64(win.heapInuse) / 1e6,
		"calls_per_query": ratio(calls, n),
		"sim_ms_mean":     mean(win.sim),

		"error_rate":                       ratio(float64(win.failed+win.wrong+win.rejected+win.degraded), n),
		"latency_ms_p99":                   percentile(all, 99),
		"optimizer.plans_explored":         ratio(float64(win.explored), n),
		"optimizer.prefixes_pruned":        ratio(float64(win.pruned), n),
		"optimizer.prune_ratio":            ratio(float64(win.pruned), float64(win.explored+win.pruned)),
		"plan.annotate_us":                 ratio(win.annotateUS, float64(win.sideN)),
		"plancheck.check_us":               ratio(win.checkUS, float64(win.sideN)),
		"engine.invocations_per_query":     ratio(invocations, n),
		"engine.calls_saved_per_query":     ratio(win.callsSaved, n),
		"engine.halted_share":              ratio(float64(win.halted), n),
		"engine.results_per_call":          ratio(float64(win.results), calls),
		"service.wire_calls_per_query":     ratio(float64(d.wireFetches), n),
		"service.tuples_per_fetch":         ratio(float64(d.wireTuples), float64(d.wireFetches)),
		"service.wire_per_engine_call":     ratio(float64(d.wireFetches), calls),
		"serve.wait_ms_p50":                percentile(win.wait, 50),
		"serve.response_bytes":             ratio(float64(win.respBytes), n),
		"serve.plan_cache_hit_ratio":       ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)),
		"admission.admit_share":            ratio(float64(win.admitted), n),
		"admission.degrade_share":          ratio(float64(win.shed), n),
		"admission.reject_share":           ratio(float64(win.rejected), n),
		"loadgen.late_ms_p99":              percentile(win.late, 99),
		"runtime.gc_cycles_per_1k_queries": ratio(float64(win.whole().numGC)*1000, n),
		"trace.untraced_ms_p50":            percentile(win.latUntraced, 50),
		"trace.traced_ms_p50":              percentile(win.latTraced, 50),
		"trace.untraced_ms_mean":           mean(win.latUntraced),
		"trace.traced_ms_mean":             mean(win.latTraced),
	}
	if w.open && percentile(all, 99) <= latencyLimitMS {
		m["latency_limit_met"] = 1
	} else {
		m["latency_limit_met"] = 0
	}
	t := win.traces
	if t == nil {
		t = newTraceStats()
	}
	var sum float64
	for _, layer := range layers {
		sum += t.perQueryMS(layer)
	}
	m["trace.self_sum_ms"] = sum
	m["trace.spans_per_query"] = ratio(float64(t.spans), float64(t.requests))
	m["bench.self_ms"] = t.perQueryMS("bench")
	m["query.self_ms"] = t.perQueryMS("query")
	m["optimizer.self_ms"] = t.perQueryMS("optimizer")
	m["engine.self_ms"] = t.perQueryMS("engine")
	m["service.self_ms"] = t.perQueryMS("service")
	m["serve.wait_ms"] = t.perQueryMS("serve.wait")
	m["serve.transport_ms"] = t.perQueryMS("serve.transport")
	m["serve.handler_self_ms"] = t.perQueryMS("serve.handler")
	m["query.parse_us"] = t.meanCallNS("query.parse") / 1e3
	m["query.analyze_us"] = t.meanCallNS("query.analyze") / 1e3
	m["optimizer.optimize_ms"] = t.meanCallNS("optimizer.optimize") / 1e6
	m["engine.execute_ms"] = t.meanCallNS("engine.execute") / 1e6
	m["service.invoke_us"] = t.meanCallNS("service.invoke") / 1e3
	m["serve.handler_ms"] = t.meanCallNS("serve.handler") / 1e6
	m["service.busy_ms_per_query"] = ratio(float64(t.busyNS["service.invoke"]+t.busyNS["service.fetch"])/1e6, float64(t.requests))
	return m
}

// perSlice is the median over the window's parts of f, given each part's
// tally and resource use.
func perSlice(win *window, f func(sliceTally, usage) float64) float64 {
	vals := make([]float64, slices)
	for k := range vals {
		vals[k] = f(win.slice[k], win.part(k))
	}
	return median(vals)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
