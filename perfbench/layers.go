package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// perLayerDefs are the per-layer metrics, named <module>.<measure>, in
// report order. A layer a workload leaves idle reports 0 over 0 samples.
var perLayerDefs = []struct{ name, unit string }{
	{"server.serve_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.render_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.resp_kb", "KB"},
	{"server.cache_hit_frac", "ratio"},
	{"server.rejected_frac", "ratio"},
	{"server.cpu_ms_per_op", "ms"},
	{"server.index_served_frac", "ratio"},
	{"server.maint_repairs", "count"},
	{"server.maint_rebuilds", "count"},
	{"index.topk_ms", "ms"},
	{"index.topk_alloc_kb", "KB"},
	{"index.build_s", "s"},
	{"index.repair_ms", "ms"},
	{"core.topk_ms", "ms"},
	{"core.rounds", "count"},
	{"core.work_ratio", "ratio"},
	{"core.visited_frac", "ratio"},
	{"truss.topk_ms", "ms"},
	{"store.semiext_topk_ms", "ms"},
	{"semiext.prefix_decode_ms", "ms"},
	{"semiext.wal_append_ms", "ms"},
	{"query.plan_us", "us"},
	{"query.nodes_per_batch", "count"},
	{"query.cse_hit_frac", "ratio"},
	{"mutable.apply_ms", "ms"},
	{"mutable.effective_frac", "ratio"},
	{"graph.delta_ms", "ms"},
	{"cluster.topk_ms", "ms"},
	{"cluster.slowest_shard_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.failovers", "count"},
	{"probe.reweight_ms", "ms"},
	{"probe.bigk_result_mb", "MB"},
	{"probe.nc_ms", "ms"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayerDefs))
	for i, d := range perLayerDefs {
		out[i] = d.name
	}
	return out
}

// counters are the servers' own counts after the untimed load, summed
// over the workload's icserver processes.
type counters struct {
	cacheHits, cacheMisses     int64
	indexQueries, localQueries int64
	dslQueries, planNodes      int64
	cseHits                    int64
	repairs, rebuilds          int64
	failovers                  int64 // coordinator failovers plus retries
}

// serverStats is the part of icserver's /v1/stats the benchmark reads.
type serverStats struct {
	IndexQueries int64 `json:"index_queries"`
	LocalQueries int64 `json:"local_queries"`
	DSLQueries   int64 `json:"dsl_queries"`
	PlanNodes    int64 `json:"plan_nodes"`
	CSEHits      int64 `json:"cse_hits"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Datasets     []struct {
		IndexRebuilds     int64 `json:"index_rebuilds"`
		IndexDeltaRepairs int64 `json:"index_delta_repairs"`
	} `json:"datasets"`
}

// coordStats is the part of iccoord's /v1/stats the benchmark reads.
type coordStats struct {
	Failovers int64 `json:"failovers"`
	Retries   int64 `json:"retries"`
}

func collectCounters(ctx context.Context, st *stack) (counters, error) {
	var c counters
	for _, p := range st.procs {
		if p.name == "iccoord" {
			var cs coordStats
			if err := getJSON(ctx, http.DefaultClient, p.base+"/v1/stats", &cs); err != nil {
				return c, err
			}
			c.failovers += cs.Failovers + cs.Retries
			continue
		}
		var ss serverStats
		if err := getJSON(ctx, http.DefaultClient, p.base+"/v1/stats", &ss); err != nil {
			return c, err
		}
		c.cacheHits += ss.CacheHits
		c.cacheMisses += ss.CacheMisses
		c.indexQueries += ss.IndexQueries
		c.localQueries += ss.LocalQueries
		c.dslQueries += ss.DSLQueries
		c.planNodes += ss.PlanNodes
		c.cseHits += ss.CSEHits
		for _, d := range ss.Datasets {
			c.repairs += d.IndexDeltaRepairs
			c.rebuilds += d.IndexRebuilds
		}
	}
	return c, nil
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// loadFacts are what the untimed load measured that per-layer metrics need.
type loadFacts struct {
	cpu       time.Duration // server CPU over the window
	completed int           // ops completed in the window
	rejected  int           // 503 answers
	sent      int           // ops sent, warm-up included
}

// perLayerMetrics turns traced samples and server counters into the
// per-layer metrics: timings are per-call medians.
func perLayerMetrics(l layers, c counters, f loadFacts) metrics {
	fromCounters := map[string][2]int64{
		"server.cache_hit_frac":    {c.cacheHits, c.cacheHits + c.cacheMisses},
		"server.rejected_frac":     {int64(f.rejected), int64(f.sent)},
		"server.index_served_frac": {c.indexQueries, c.indexQueries + c.localQueries},
		"query.nodes_per_batch":    {c.planNodes, c.dslQueries},
		"query.cse_hit_frac":       {c.cseHits, c.planNodes},
	}
	var m metrics
	for _, d := range perLayerDefs {
		if nd, ok := fromCounters[d.name]; ok {
			m.add(d.name, ratio(nd[0], nd[1]), d.unit, int(nd[1]))
			continue
		}
		switch d.name {
		case "server.cpu_ms_per_op":
			m.add(d.name, ms(f.cpu)/float64(max(f.completed, 1)), d.unit, f.completed)
		case "server.maint_repairs":
			m.add(d.name, float64(c.repairs), d.unit, 1)
		case "server.maint_rebuilds":
			m.add(d.name, float64(c.rebuilds), d.unit, 1)
		case "cluster.failovers":
			m.add(d.name, float64(c.failovers), d.unit, 1)
		default:
			m.add(d.name, median(l[d.name]), d.unit, len(l[d.name]))
		}
	}
	return m
}

// summarizeSpans reports, per span name, the count and the median
// duration and self time.
func summarizeSpans(spans []span) []string {
	kids := childrenOf(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(selfTime(s, kids[s.ID])))
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-24s %7d %12.4f ms %12.4f ms", n, len(durs[n]), median(durs[n]), median(selfs[n])))
	}
	return out
}
