package main

import (
	"fmt"

	coconut "github.com/coconut-db/coconut"
)

// The run shape every workload shares. QueryWorkers stays 1: with 2 the same
// exact pass spread 7.5% instead of 2% on two cores, and the visited and I/O
// counts stop repeating.
const (
	seriesLen    = 256
	procs        = 2
	buildWorkers = 2
	queryWorkers = 1
	mixedClients = 2
	mixedApprox  = 50 // approx queries per exact one in the mixed phase
	approxRadius = 1
)

// spec is one workload: which index over which data, and how often the
// set-up is repeated. Everything here is recorded in the output.
type spec struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Variant string `json:"variant"` // tree, trie or lsm
	Kind    string `json:"dataset"`
	N       int    `json:"n"` // series indexed when set-up ends
	// Stream shape (stream_lsm only): Bulk series are bulk-loaded, the rest
	// arrive in Insert batches of Batch; after every QueryEvery-th batch the
	// client asks 1 exact and IngestApprox approx queries.
	Bulk         int   `json:"bulk,omitempty"`
	Batch        int   `json:"batch,omitempty"`
	QueryEvery   int   `json:"query_every,omitempty"`
	IngestApprox int   `json:"ingest_approx,omitempty"`
	MemRecords   int   `json:"memtable_records,omitempty"` // MemoryBudget = 24 B × this
	CacheBytes   int64 `json:"cache_bytes,omitempty"`      // 0 = the program's default
	Partitions   int   `json:"partitions,omitempty"`
	HTTP         bool  `json:"http,omitempty"`
	Cycles       int   `json:"cycles"` // C of median-of-C
}

// shape is what a scale fixes for all workloads: list sizes and the pass
// counts a phase runs at least. A phase keeps running whole passes while its
// share of -seconds lasts, so a full-scale run measures for -seconds seconds;
// the smoke scale passes 0 seconds and so runs exactly the minimum.
//
// The exact list holds 400 queries because the lists change with the seed,
// and how hard a query is varies far more than the clock does: on skewed data
// three queries in ten verify 18k series and the rest a few hundred. Over 100
// queries the mean latency, the median and the I/O per query moved 15-30% from
// seed to seed. Each query is therefore timed twice rather than five times,
// and the datasets are sized so that a pass over 400 takes about 4 s.
type shape struct {
	Scale        string `json:"scale"`
	ExactQ       int    `json:"exact_queries"`
	ApproxQ      int    `json:"approx_queries"`
	HeadQ        int    `json:"head_queries"` // head of the exact list: exact warm-up pass, HTTP-vs-direct check
	MixedQ       int    `json:"mixed_exact"`  // exact queries per mixed pass, from the head of the list
	TwinQ        int    `json:"twin_queries"` // head of the exact list the traced twins replay
	WarmExact    int    `json:"warm_exact"`   // per cycle, after the first exact query; each cycle takes the next ones
	WarmApprox   int    `json:"warm_approx"`
	ExactPasses  int    `json:"min_exact_passes"`  // R at least
	ApproxPasses int    `json:"min_approx_passes"` // R at least
	MixedPasses  int    `json:"min_mixed_passes"`  // P at least
}

var fullShape = shape{Scale: "full", ExactQ: 400, ApproxQ: 2000, HeadQ: 100, MixedQ: 200, TwinQ: 50,
	WarmExact: 5, WarmApprox: 100, ExactPasses: 2, ApproxPasses: 3, MixedPasses: 2}
var smokeShape = shape{Scale: "smoke", ExactQ: 12, ApproxQ: 100, HeadQ: 6, MixedQ: 8, TwinQ: 6,
	WarmExact: 2, WarmApprox: 20, ExactPasses: 2, ApproxPasses: 2, MixedPasses: 2}

// Shares of -seconds per phase. Exact queries cost ~100x an approx one, so
// they get the most time; each share still buys at least the minimum passes.
const (
	exactShare  = 0.55
	approxShare = 0.15
	mixedShare  = 0.30
)

// workloads returns the four workloads at a scale. Names are fixed: later
// changes refer to them.
func workloads(scale string) ([]spec, shape, error) {
	full := []spec{
		{
			Name:    "static_tree",
			Why:     "Coconut-Tree bulk load (summary + extsort) and SIMS-bound exact search: no LSM, block cache or HTTP, so changes there must not move it",
			Variant: "tree", Kind: string(coconut.RandomWalk), N: 60_000, Cycles: 9,
		},
		{
			Name:    "static_lsm_smallcache",
			Why:     "LSM runs behind a 256 KiB block cache, a third of the decoded keys, on skewed data: every query decodes blocks and verifies many raw series",
			Variant: "lsm", Kind: string(coconut.Skewed), N: 30_000, CacheBytes: 256 << 10, Cycles: 9,
		},
		{
			Name:    "stream_lsm",
			Why:     "bulk load then WAL-backed Insert batches through memtable, flushes and three compaction tiers, with a cache that fits: write cost beside read cost",
			Variant: "lsm", Kind: string(coconut.Astronomy), N: 60_000, Bulk: 20_000, Batch: 1000,
			QueryEvery: 5, IngestApprox: 20, MemRecords: 2048, Cycles: 5,
		},
		{
			Name:    "serve_http",
			Why:     "2-partition Coconut-Trie queried through internal/server over loopback HTTP: the only place JSON, scatter-gather and the trie do work",
			Variant: "trie", Kind: string(coconut.RandomWalk), N: 60_000, Partitions: 2, HTTP: true, Cycles: 5,
		},
	}
	switch scale {
	case "full":
		return full, fullShape, nil
	case "smoke":
		for i := range full {
			s := &full[i]
			s.N, s.Cycles = 4000, 2
			if s.Bulk > 0 {
				s.Bulk, s.Batch, s.QueryEvery, s.MemRecords = 1000, 250, 4, 256
			}
			if s.CacheBytes > 0 {
				s.CacheBytes = 16 << 10
			}
		}
		return full, smokeShape, nil
	}
	return nil, shape{}, fmt.Errorf("unknown -scale %q (want full or smoke)", scale)
}

// metricDef names one metric. Layer metrics carry the layer (package) they
// probe and the end-to-end metric they are expected to move; BENCHMARK.json
// can hold only name, unit and direction, so the map lives here and in
// bench/README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string // per-layer only
}

// endToEnd is the same list on every workload. A later change is judged on
// these, per workload, against the bounds in BENCHMARK.json.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "build_s", Unit: "s", Better: "lower"},
	{Name: "exact_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "exact_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "approx_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "approx_dist_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mixed_qps", Unit: "1/s", Better: "higher"},
	{Name: "exact_read_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "write_amp", Unit: "ratio", Better: "lower"},
	{Name: "index_bytes_per_raw_byte", Unit: "ratio", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
}

// perLayer is measured from outside the program: by timing calls into a
// layer's exported functions and by reading counters it already exposes.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"summary.keyof_ns", "ns", "lower", "build_s"},
	{"summary.mindist_ns_per_key", "ns", "lower", "exact_mean_ms"},
	{"series.ed_ns", "ns", "lower", "exact_mean_ms"},
	{"series.ed_abandon_ns", "ns", "lower", "exact_p90_ms"},
	{"extsort.sort_ns_per_record", "ns", "lower", "build_s"},
	{"extsort.bytes_written_per_record", "B", "lower", "write_amp"},
	{"runblock.encode_ns_per_record", "ns", "lower", "build_s"},
	{"runblock.decode_ns_per_record", "ns", "lower", "exact_mean_ms"},
	{"runblock.search_ns", "ns", "lower", "approx_p50_ms"},
	{"runblock.bytes_per_record", "B", "lower", "index_bytes_per_raw_byte"},
	{"blockcache.hit_ratio", "ratio", "higher", "exact_mean_ms"},
	{"blockcache.evictions_per_query", "count", "lower", "exact_mean_ms"},
	{"blockcache.resident_mb", "MB", "lower", "live_heap_mb"},
	{"blockcache.get_ns", "ns", "lower", "approx_p50_ms"},
	{"storage.build.bytes_read", "B", "lower", "build_s"},
	{"storage.build.bytes_written", "B", "lower", "write_amp"},
	{"storage.build.rand_writes", "count", "lower", "build_s"},
	{"storage.exact.rand_reads_per_query", "count", "lower", "exact_read_kb_per_query"},
	{"storage.exact.seq_reads_per_query", "count", "lower", "exact_read_kb_per_query"},
	{"storage.approx.reads_per_query", "count", "lower", "approx_p50_ms"},
	{"storage.sync_count", "count", "lower", "build_s"},
	{"storage.exact.read_ms_per_query", "ms", "lower", "exact_mean_ms"},
	{"storage.build.write_s", "s", "lower", "build_s"},
	{"storage.build.sync_s", "s", "lower", "build_s"},
	{"storage.checksum_read_mb_s", "MB/s", "higher", "exact_mean_ms"},
	{"core.exact.visited_series_per_query", "count", "lower", "exact_mean_ms"},
	{"core.exact.visited_leaves_per_query", "count", "lower", "exact_read_kb_per_query"},
	{"core.exact.pruned_share", "ratio", "higher", "exact_mean_ms"},
	{"core.approx.visited_series_per_query", "count", "lower", "approx_dist_ratio"},
	{"core.leaves", "count", "lower", "index_bytes_per_raw_byte"},
	{"core.leaf_fill", "ratio", "higher", "index_bytes_per_raw_byte"},
	{"core.knn10_p50_ms", "ms", "lower", "exact_mean_ms"},
	{"lsm.insert_p50_ms", "ms", "lower", "build_s"},
	{"lsm.insert_p95_ms", "ms", "lower", "build_s"},
	{"lsm.ingest_exact_p50_ms", "ms", "lower", "exact_mean_ms"},
	{"lsm.ingest_approx_p50_ms", "ms", "lower", "approx_p50_ms"},
	{"lsm.runs_final", "count", "lower", "exact_mean_ms"},
	{"lsm.bytes_written.wal", "B", "lower", "write_amp"},
	{"lsm.bytes_written.runs", "B", "lower", "write_amp"},
	{"lsm.bytes_written.raw", "B", "lower", "write_amp"},
	{"partition.exact_direct_mean_ms", "ms", "lower", "exact_mean_ms"},
	{"partition.approx_direct_p50_ms", "ms", "lower", "approx_p50_ms"},
	{"partition.single_exact_mean_ms", "ms", "lower", "exact_mean_ms"},
	{"shard.qw2_exact_speedup", "ratio", "higher", "exact_mean_ms"},
	{"server.http_overhead_approx_ms", "ms", "lower", "approx_p50_ms"},
	{"server.http_overhead_exact_ms", "ms", "lower", "mixed_qps"},
	{"server.request_bytes", "B", "lower", "approx_p50_ms"},
	{"server.response_bytes", "B", "lower", "approx_p50_ms"},
	{"server.shed_share", "ratio", "lower", "mixed_qps"},
	{"server.open_loop.p50_ms", "ms", "lower", "approx_p50_ms"},
	{"server.open_loop.p99_ms", "ms", "lower", "mixed_qps"},
	{"server.open_loop.late_share", "ratio", "lower", "mixed_qps"},
	{"manifest.open_ms", "ms", "lower", "setup_s"},
	{"manifest.reopen_first_exact_ms", "ms", "lower", "setup_s"},
	{"process.peak_rss_mb", "MB", "lower", "live_heap_mb"},
	{"process.gc_pause_ms", "ms", "lower", "exact_p90_ms"},
	{"process.allocs_per_exact_query", "count", "lower", "exact_mean_ms"},
	{"process.alloc_kb_per_approx_query", "KB", "lower", "approx_p50_ms"},
	{"process.exact_raw_p99_ms", "ms", "lower", "exact_p90_ms"},
	{"dataset.gen_s", "s", "lower", "setup_s"},
	{"trace.overhead_pct", "%", "lower", "exact_mean_ms"},
}
