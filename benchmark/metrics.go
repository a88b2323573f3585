package main

import (
	"math"
	"sort"
)

// metricDef names one number the benchmark prints. The two tables below
// are the single source of those names: BENCHMARK.json must list exactly
// them (a test compares), -compare takes its bounds from them, and the
// README's prediction table is the Layer/Moves columns.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median an end-to-end metric
	// may worsen by before -compare (and the driver) reject a change.
	Bound float64
	// Layer is the module a per-layer metric belongs to; Moves is the
	// end-to-end metric and workload it is predicted to move.
	Layer, Moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so each is named for its role and the workload
// table gives the role's concrete meaning (and the issue's name for it)
// in that workload. One bound has to hold on all five workloads, so it
// is set by the noisiest: on the 2-core reference box the machine's own
// speed steps by 5-13% within a quarter of an hour (README, "How steady
// it is"). Tails and CPU time did not repeat within any bound worth
// having and are per-layer rows instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "first_ms.p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "total_ms.p50", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "part_ms.p50", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
}

const (
	atCold  = "total_ms.p50 @ serve-cold"
	atLan   = "part_ms.p50, total_ms.p50 @ live-lan"
	atFirst = "first_ms.p50 @ live-lan, live-t1"
	atWarm  = "ops_per_s, first_ms.p50, part_ms.p50 @ serve-warm"
	atRoute = "ops_per_s, first_ms.p50, part_ms.p50 @ cluster-route; no change @ serve-warm"
)

// perLayer is the traced run's output: one layer at a time, timed from
// the benchmark's side of the layer's public functions. Timings and
// allocation counts are per pass over the six apps unless the unit says
// otherwise. The rows from "live.toc_prelude_ms" down to the end are
// observed while the selected workload runs, so they read 0 on a
// workload that bypasses the layer.
var perLayer = []metricDef{
	{Name: "jir.compile_ms", Unit: "ms", Better: "lower", Layer: "jir", Moves: atCold},
	{Name: "jir.compile_allocs", Unit: "count", Better: "lower", Layer: "jir", Moves: atCold},
	{Name: "cfg.build_ms", Unit: "ms", Better: "lower", Layer: "cfg", Moves: atCold},
	{Name: "cfg.build_allocs", Unit: "count", Better: "lower", Layer: "cfg", Moves: atCold},
	{Name: "reorder.static_ms", Unit: "ms", Better: "lower", Layer: "reorder", Moves: atCold},
	{Name: "reorder.from_profile_ms", Unit: "ms", Better: "lower", Layer: "reorder", Moves: atCold},
	{Name: "experiments.load_ms", Unit: "ms", Better: "lower", Layer: "experiments", Moves: atCold},
	{Name: "restructure.apply_ms", Unit: "ms", Better: "lower", Layer: "restructure", Moves: atCold},
	{Name: "restructure.apply_allocs", Unit: "count", Better: "lower", Layer: "restructure", Moves: atCold},
	{Name: "stream.write_ms", Unit: "ms", Better: "lower", Layer: "stream", Moves: atCold},
	{Name: "stream.write_allocs", Unit: "count", Better: "lower", Layer: "stream", Moves: atCold},
	{Name: "stream.marshal_toc_ms", Unit: "ms", Better: "lower", Layer: "stream", Moves: atCold},
	{Name: "stream.toc_bytes_per_stream_byte", Unit: "ratio", Better: "lower", Layer: "stream", Moves: "first_ms.p50 @ live-t1"},
	{Name: "stream.parse_toc_ms", Unit: "ms", Better: "lower", Layer: "stream", Moves: atFirst},
	{Name: "stream.fetch_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "stream", Moves: atLan},
	{Name: "stream.fetch_allocs", Unit: "count", Better: "lower", Layer: "stream", Moves: "alloc_kb_per_op @ live-lan"},
	{Name: "stream.fetch_range_us", Unit: "us", Better: "lower", Layer: "stream", Moves: "part_ms.p50 @ live-lan"},
	{Name: "stream.loader_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "stream", Moves: atLan + "; no change @ live-t1"},
	{Name: "stream.loader_allocs_per_unit", Unit: "count", Better: "lower", Layer: "stream", Moves: "alloc_kb_per_op, total_ms.p50 @ live-lan"},
	{Name: "stream.loader_alloc_bytes_per_stream_byte", Unit: "ratio", Better: "lower", Layer: "stream", Moves: "alloc_kb_per_op @ live-lan"},
	{Name: "stream.feed_demand_us", Unit: "us", Better: "lower", Layer: "stream", Moves: "part_ms.p50 @ live-lan"},
	{Name: "stream.crc_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "stream", Moves: "total_ms.p50 @ live-lan"},
	{Name: "verify.program_ms", Unit: "ms", Better: "lower", Layer: "verify", Moves: "part_ms.p50 @ live-lan"},
	{Name: "verify.program_allocs", Unit: "count", Better: "lower", Layer: "verify", Moves: "alloc_kb_per_op @ live-lan"},
	{Name: "vm.link_ms", Unit: "ms", Better: "lower", Layer: "vm", Moves: "part_ms.p50 @ live-lan"},
	{Name: "vm.run_minstr_per_s", Unit: "M/s", Better: "higher", Layer: "vm", Moves: "part_ms.p50 @ live-lan"},
	{Name: "vm.run_allocs", Unit: "count", Better: "lower", Layer: "vm", Moves: "alloc_kb_per_op @ live-lan"},
	{Name: "vm.profile_run_ms", Unit: "ms", Better: "lower", Layer: "vm", Moves: atCold},
	{Name: "server.build_ms.scg", Unit: "ms", Better: "lower", Layer: "server", Moves: atCold},
	{Name: "server.build_ms.train", Unit: "ms", Better: "lower", Layer: "server", Moves: atCold + "; setup_s @ all"},
	{Name: "server.build_allocs.scg", Unit: "count", Better: "lower", Layer: "server", Moves: atCold},
	{Name: "server.build_self_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: atCold},
	{Name: "server.newartifact_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "setup_s @ cluster-route"},
	{Name: "server.store_put_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: atCold},
	{Name: "server.store_get_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "part_ms.p50 @ serve-cold"},
	{Name: "server.cache_hit_ns", Unit: "ns", Better: "lower", Layer: "server", Moves: atWarm},
	{Name: "server.handler_stream_us", Unit: "us", Better: "lower", Layer: "server", Moves: atWarm},
	{Name: "server.handler_stream_allocs", Unit: "count", Better: "lower", Layer: "server", Moves: "alloc_kb_per_op @ serve-warm"},
	{Name: "server.handler_stream_alloc_bytes", Unit: "B", Better: "lower", Layer: "server", Moves: "alloc_kb_per_op @ serve-warm"},
	{Name: "server.handler_range_us", Unit: "us", Better: "lower", Layer: "server", Moves: "part_ms.p50 @ serve-warm"},
	{Name: "server.handler_range_allocs", Unit: "count", Better: "lower", Layer: "server", Moves: "alloc_kb_per_op @ serve-warm"},
	{Name: "server.handler_toc_us", Unit: "us", Better: "lower", Layer: "server", Moves: "total_ms.p50 @ serve-warm"},
	{Name: "server.handler_304_us", Unit: "us", Better: "lower", Layer: "server", Moves: "total_ms.p50 @ serve-warm"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: atRoute},
	{Name: "cluster.router_hop_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: atRoute},
	{Name: "cluster.router_allocs", Unit: "count", Better: "lower", Layer: "cluster", Moves: "alloc_kb_per_op @ cluster-route"},
	{Name: "cluster.router_alloc_bytes", Unit: "B", Better: "lower", Layer: "cluster", Moves: "alloc_kb_per_op @ cluster-route"},
	{Name: "cluster.peer_fill_ms", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "setup_s @ cluster-route"},

	{Name: "live.toc_prelude_ms", Unit: "ms", Better: "lower", Layer: "live", Moves: atFirst},
	{Name: "live.stall_ms", Unit: "ms", Better: "lower", Layer: "live", Moves: "part_ms.p50 @ live-t1"},
	{Name: "live.transfer_wait_ms", Unit: "ms", Better: "lower", Layer: "live", Moves: "part_ms.p50 @ live-t1"},
	{Name: "live.gate_wait_ms", Unit: "ms", Better: "lower", Layer: "live", Moves: "part_ms.p50 @ live-lan"},
	{Name: "live.repair_wait_ms", Unit: "ms", Better: "lower", Layer: "live", Moves: "part_ms.p50 @ live-t1"},
	{Name: "live.demand_fetches", Unit: "count/op", Better: "lower", Layer: "live", Moves: "part_ms.p50 @ live-t1"},
	{Name: "live.mispredicts", Unit: "count/op", Better: "lower", Layer: "live", Moves: "part_ms.p50 @ live-t1"},
	{Name: "live.overlap", Unit: "ratio", Better: "higher", Layer: "live", Moves: "part_ms.p50 @ live-t1"},
	{Name: "live.drain_ms", Unit: "ms", Better: "lower", Layer: "live", Moves: "total_ms.p50 @ live-lan, live-t1"},
	{Name: "stream.requests_per_session", Unit: "count", Better: "lower", Layer: "stream", Moves: "part_ms.p50 @ live-t1"},
	{Name: "stream.retries", Unit: "count/op", Better: "lower", Layer: "stream", Moves: "total_ms.p50 @ live-lan, live-t1"},
	{Name: "stream.resumes", Unit: "count/op", Better: "lower", Layer: "stream", Moves: "total_ms.p50 @ live-lan, live-t1"},
	{Name: "server.builds", Unit: "count/op", Better: "lower", Layer: "server", Moves: atCold},
	{Name: "server.cache_hits", Unit: "count/op", Better: "higher", Layer: "server", Moves: atWarm},
	{Name: "server.store_hits", Unit: "count/op", Better: "higher", Layer: "server", Moves: "part_ms.p50 @ serve-cold"},
	{Name: "server.shed", Unit: "count/op", Better: "lower", Layer: "server", Moves: "failed @ all"},
	{Name: "cluster.proxied", Unit: "count/op", Better: "lower", Layer: "cluster", Moves: atRoute},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Layer: "cluster", Moves: "failed @ cluster-route"},
	{Name: "cluster.aborts", Unit: "count", Better: "lower", Layer: "cluster", Moves: "failed @ cluster-route"},
	{Name: "cluster.peer_fills", Unit: "count", Better: "lower", Layer: "cluster", Moves: "setup_s @ cluster-route"},
	{Name: "cluster.fallback_builds", Unit: "count", Better: "lower", Layer: "cluster", Moves: "failed @ cluster-route"},
	{Name: "first_ms.tail", Unit: "ms", Better: "lower", Layer: "workload", Moves: "first_ms.p50 @ same workload"},
	{Name: "part_ms.tail", Unit: "ms", Better: "lower", Layer: "workload", Moves: "part_ms.p50 @ same workload"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Layer: "workload", Moves: "ops_per_s @ same workload, where the processors are busy"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Layer: "workload", Moves: "none: traced total_ms.p50 over untraced"},
}

// percentile is the p-th percentile (0–100) of sorted samples, linearly
// interpolated between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// tailPercentile is the highest reporting percentile that still has at
// least ten of n samples beyond it; 50 when even the median has fewer.
func tailPercentile(n int) float64 {
	// In tenths of a percent, so the count beyond is exact.
	for _, p := range []int{999, 990, 950, 900, 750} {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// samples is one timing's raw observations in milliseconds.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) p(p float64) float64 { return percentile(s.sorted(), p) }

func median(xs []float64) float64 { return samples(xs).p(50) }
