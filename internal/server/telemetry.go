package server

import (
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/metrics"
	"odlib/internal/prover"
	"odlib/internal/router"
	"odlib/internal/store"
)

// Telemetry owns odserve's metric registry and every instrument the layers
// below observe into. Construction order matters: build the Telemetry first,
// thread its hooks into router.Options (CatalogOptions, StoreTelemetry,
// RouterTelemetry), open the router, then call ObserveRouter once to install
// the scrape-time collectors over it. GET /metrics serves Registry().
//
// Two kinds of series live here. Hot-path instruments (latency histograms,
// the in-flight gauge) are observed by the serving goroutines through the
// hook functions — lock-free atomics, nanoseconds per observation. Cumulative
// counts and levels that the layers already track (tier hits, search effort,
// compaction lag, WAL size) are NOT double-counted into new instruments;
// scrape-time collector functions read them straight out of router.Stats()
// and prover.Pool.Stats(), so /metrics and /healthz can never disagree.
type Telemetry struct {
	reg *metrics.Registry

	// HTTP layer, observed by the Server's middleware.
	httpRequests *metrics.CounterVec   // route, method, code
	httpSeconds  *metrics.HistogramVec // route
	inflight     *metrics.Gauge

	// Layer hooks.
	tierSeconds   *metrics.HistogramVec // tier
	mutateSeconds *metrics.HistogramVec // shard
	proveSeconds  *metrics.HistogramVec // shard
	rejections    *metrics.CounterVec   // shard
	storeTel      store.Telemetry

	// Discovery pipeline, observed once per completed POST /discover run.
	discoverRuns             *metrics.Counter
	discoverCandidates       *metrics.Counter
	discoverClosurePruned    *metrics.Counter
	discoverRefutationPruned *metrics.Counter
	discoverDataChecks       *metrics.Counter
	discoverRowsScanned      *metrics.Counter
	discoverCacheHits        *metrics.Counter
	discoverCacheMisses      *metrics.Counter
	discoverAccepted         *metrics.Counter
	// ...and its physical work, core.KernelStats, with the decode's.
	discoverRefineRows *metrics.Counter
	discoverTieRows    *metrics.Counter
	discoverSortedRows *metrics.Counter
	discoverProbed     *metrics.Counter
	discoverProbeRows  *metrics.Counter
	discoverCompared   *metrics.Counter
	discoverScanPairs  *metrics.Counter
	discoverRankViews  *metrics.Counter
	discoverRankRows   *metrics.Counter
	discoverLoopCells  *metrics.Counter
	discoverCellCells  *metrics.Counter
}

// NewTelemetry builds the registry and every hot-path instrument. The five
// verdict-tier series are pre-created so the very first scrape already
// carries all of them at zero — dashboards and the acceptance contract rely
// on the full tier set being present, not just the tiers traffic has hit.
func NewTelemetry() *Telemetry {
	reg := metrics.NewRegistry()
	t := &Telemetry{
		reg: reg,
		httpRequests: reg.NewCounterVec("odserve_http_requests_total",
			"HTTP requests served, by route, method and status code.",
			[]string{"route", "method", "code"}),
		httpSeconds: reg.NewHistogramVec("odserve_http_request_seconds",
			"Wall-clock request latency by route.",
			metrics.DefLatencyBuckets, []string{"route"}),
		inflight: reg.NewGauge("odserve_http_inflight_requests",
			"Requests currently being served."),
		tierSeconds: reg.NewHistogramVec("odserve_verdict_tier_seconds",
			"Implication-question latency by the verdict tier that answered it.",
			metrics.DefLatencyBuckets, []string{"tier"}),
		mutateSeconds: reg.NewHistogramVec("odserve_mutation_seconds",
			"Mutation latency by shard: WAL staging, group-commit durability wait, catalog apply.",
			metrics.DefLatencyBuckets, []string{"shard"}),
		proveSeconds: reg.NewHistogramVec("odserve_prove_seconds",
			"Prove-call latency against one shard snapshot, by shard.",
			metrics.DefLatencyBuckets, []string{"shard"}),
		rejections: reg.NewCounterVec("odserve_backpressure_rejections_total",
			"Mutations rejected by compaction-lag admission control, by shard.",
			[]string{"shard"}),
		discoverRuns: reg.NewCounter("odserve_discover_runs_total",
			"Completed POST /discover pipeline runs."),
		discoverCandidates: reg.NewCounter("odserve_discover_candidates_total",
			"Candidate ODs enumerated across discovery runs."),
		discoverClosurePruned: reg.NewCounter("odserve_discover_closure_pruned_total",
			"Candidates pruned by the incremental closure (hold by inference, no data touched)."),
		discoverRefutationPruned: reg.NewCounter("odserve_discover_refutation_pruned_total",
			"Candidates pruned by prefix refutation propagation (fail by inference, no data touched)."),
		discoverDataChecks: reg.NewCounter("odserve_discover_data_checks_total",
			"Candidates validated against relation data."),
		discoverRowsScanned: reg.NewCounter("odserve_discover_rows_scanned_total",
			"Rows scanned across discovery sorts and validation passes."),
		discoverCacheHits: reg.NewCounter("odserve_discover_cache_hits_total",
			"Sorted-partition cache hits (relation sorts avoided)."),
		discoverCacheMisses: reg.NewCounter("odserve_discover_cache_misses_total",
			"Sorted-partition cache misses (relation sorts performed)."),
		discoverAccepted: reg.NewCounter("odserve_discover_accepted_ods_total",
			"ODs discovered to hold and committed."),
		discoverRefineRows: reg.NewCounter("odserve_discover_refine_rows_total",
			"Rows dealt into the classes of a prefix by partition refinement."),
		discoverTieRows: reg.NewCounter("odserve_discover_tie_rows_total",
			"Rows through the tie pass of partition refinement."),
		discoverSortedRows: reg.NewCounter("odserve_discover_sorted_rows_total",
			"Rows of the contexts sorted from scratch (the empty and one-attribute contexts)."),
		discoverProbed: reg.NewCounter("odserve_discover_probe_decided_total",
			"Contexts decided on a prefix of their order, not refined."),
		discoverProbeRows: reg.NewCounter("odserve_discover_probe_rows_total",
			"Rows placed by the prefix probes of contexts."),
		discoverCompared: reg.NewCounter("odserve_discover_compared_rows_total",
			"Rows ordered by a comparison sort, not a counting sort: probe classes smaller than their column's cardinality, rank views sorted by value."),
		discoverScanPairs: reg.NewCounter("odserve_discover_scan_pairs_total",
			"Adjacent row pairs compared by data checks."),
		discoverRankViews: reg.NewCounter("odserve_discover_rank_views_total",
			"Column rank views built."),
		discoverRankRows: reg.NewCounter("odserve_discover_rank_rows_total",
			"Rows of the column rank views built."),
		discoverLoopCells: reg.NewCounter("odserve_discover_loop_cells_total",
			"Body cells decoded by the integer-row loop."),
		discoverCellCells: reg.NewCounter("odserve_discover_cell_cells_total",
			"Body cells decoded one call of the cell decoder each."),
	}
	t.storeTel = store.Telemetry{
		CommitSeconds: reg.NewHistogram("odserve_wal_commit_seconds",
			"Group-commit latency: one WAL write+sync serving a whole commit batch.",
			metrics.DefLatencyBuckets).Observe,
		FsyncSeconds: reg.NewHistogram("odserve_wal_fsync_seconds",
			"fsync portion of each WAL group commit.",
			metrics.DefLatencyBuckets).Observe,
		BatchRecords: reg.NewHistogram("odserve_wal_commit_batch_records",
			"Records carried per WAL group commit.",
			metrics.SizeBuckets).Observe,
	}
	for _, tier := range []string{
		catalog.TierTrivial, catalog.TierClosure, catalog.TierNegative,
		catalog.TierMemo, catalog.TierSearch,
	} {
		t.tierSeconds.With(tier)
	}
	return t
}

// observeDiscover folds one completed pipeline run's stats, and the
// physical work of its kernels and its body's decode, into the discovery
// counters.
func (t *Telemetry) observeDiscover(st discover.PipelineStats, k core.KernelStats) {
	t.discoverRuns.Inc()
	t.discoverCandidates.Add(float64(st.Candidates))
	t.discoverClosurePruned.Add(float64(st.ClosurePruned))
	t.discoverRefutationPruned.Add(float64(st.RefutationPruned))
	t.discoverDataChecks.Add(float64(st.DataChecks))
	t.discoverRowsScanned.Add(float64(st.RowsScanned))
	t.discoverCacheHits.Add(float64(st.CacheHits))
	t.discoverCacheMisses.Add(float64(st.CacheMisses))
	t.discoverAccepted.Add(float64(st.Accepted))
	t.discoverRefineRows.Add(float64(k.RefineRows))
	t.discoverTieRows.Add(float64(k.TieRows))
	t.discoverSortedRows.Add(float64(k.SortedRows))
	t.discoverProbed.Add(float64(k.ProbeDecided))
	t.discoverProbeRows.Add(float64(k.ProbeRows))
	t.discoverCompared.Add(float64(k.ComparedRows))
	t.discoverScanPairs.Add(float64(k.ScanPairs))
	t.discoverRankViews.Add(float64(k.RankViews))
	t.discoverRankRows.Add(float64(k.RankRows))
	t.discoverLoopCells.Add(float64(k.LoopCells))
	t.discoverCellCells.Add(float64(k.CellCells))
}

// Registry exposes the underlying registry — the GET /metrics handler, and
// the hook pkg/odclient's MetricsRegistry option plugs into when a client
// shares the process.
func (t *Telemetry) Registry() *metrics.Registry { return t.reg }

// CatalogOptions returns the catalog options every shard should carry: the
// tier-latency observer and, when pool is non-nil, the shared search pool.
func (t *Telemetry) CatalogOptions(pool *prover.Pool) []catalog.Option {
	opts := []catalog.Option{
		catalog.WithTierLatency(func(tier string, seconds float64) {
			t.tierSeconds.With(tier).Observe(seconds)
		}),
	}
	if pool != nil {
		opts = append(opts, catalog.WithSearchPool(pool))
	}
	return opts
}

// StoreTelemetry returns the store-layer hook set (shared by every shard's
// group-commit goroutine).
func (t *Telemetry) StoreTelemetry() *store.Telemetry { return &t.storeTel }

// RouterTelemetry returns the router-layer hook set.
func (t *Telemetry) RouterTelemetry() *router.Telemetry {
	return &router.Telemetry{
		MutateSeconds: func(shard string, seconds float64) {
			t.mutateSeconds.With(router.Alias(shard)).Observe(seconds)
		},
		ProveSeconds: func(shard string, seconds float64) {
			t.proveSeconds.With(router.Alias(shard)).Observe(seconds)
		},
		BackpressureRejected: func(shard string) {
			t.rejections.With(router.Alias(shard)).Inc()
		},
	}
}

// ObserveRouter installs the scrape-time collectors: counters and gauges the
// layers already maintain, read per scrape from rt.Stats() and pool.Stats()
// rather than counted a second time on the hot path. Call exactly once per
// Telemetry, after router.Open; pool may be nil.
func (t *Telemetry) ObserveRouter(rt *router.Router, pool *prover.Pool) {
	reg := t.reg

	reg.NewCounterFunc("odserve_verdict_tier_hits_total",
		"Implication questions answered, by shard and verdict tier.",
		[]string{"shard", "tier"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				sl := router.Alias(name)
				tiers := ss.Catalog.Tiers
				emit([]string{sl, catalog.TierTrivial}, float64(tiers.Trivial))
				emit([]string{sl, catalog.TierClosure}, float64(tiers.Closure))
				emit([]string{sl, catalog.TierNegative}, float64(tiers.Negative))
				emit([]string{sl, catalog.TierMemo}, float64(tiers.Memo))
				emit([]string{sl, catalog.TierSearch}, float64(tiers.Search))
			}
		})
	reg.NewCounterFunc("odserve_searches_total",
		"Pattern searches run (questions no cheaper tier could answer), by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				emit([]string{router.Alias(name)}, float64(ss.Catalog.Prover.Searches))
			}
		})
	reg.NewCounterFunc("odserve_search_nodes_total",
		"Sign-enumeration nodes visited across all searches, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				emit([]string{router.Alias(name)}, float64(ss.Catalog.Prover.Nodes))
			}
		})
	reg.NewCounterFunc("odserve_search_cancelled_total",
		"Searches aborted by context cancellation or deadline, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				emit([]string{router.Alias(name)}, float64(ss.Catalog.Prover.Cancelled))
			}
		})
	reg.NewCounterFunc("odserve_search_widenings_total",
		"Working-set widenings (a candidate counterexample rejected by an OD outside the search, which then joins it), by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				emit([]string{router.Alias(name)}, float64(ss.Catalog.Prover.Widenings))
			}
		})
	reg.NewGaugeFunc("odserve_declared_ods",
		"Declared order dependencies, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				emit([]string{router.Alias(name)}, float64(ss.Catalog.Declared))
			}
		})
	reg.NewGaugeFunc("odserve_compaction_lag_segments",
		"Sealed WAL segments the last durable snapshot does not cover, by shard (admission control trips on this).",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				if ss.Store != nil {
					emit([]string{router.Alias(name)}, float64(ss.Store.LagSegments))
				}
			}
		})
	reg.NewGaugeFunc("odserve_compaction_lag_records",
		"WAL records behind the last durable snapshot, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				if ss.Store != nil {
					emit([]string{router.Alias(name)}, float64(ss.Store.SinceSnapshot))
				}
			}
		})
	reg.NewGaugeFunc("odserve_wal_bytes",
		"Live WAL bytes on disk, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				if ss.Store != nil {
					emit([]string{router.Alias(name)}, float64(ss.Store.WALBytes))
				}
			}
		})
	reg.NewCounterFunc("odserve_snapshots_total",
		"Snapshots written by the background compactor, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, ss := range rt.Stats() {
				if ss.Store != nil {
					emit([]string{router.Alias(name)}, float64(ss.Store.Snapshots))
				}
			}
		})

	if rt.IsFollower() {
		t.observeReplica(rt)
	}

	if pool == nil {
		return
	}
	reg.NewGaugeFunc("odserve_search_pool_capacity",
		"Size of the shared prover worker pool (extra search goroutines allowed across ALL concurrent proves).",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(pool.Stats().Capacity))
		})
	reg.NewGaugeFunc("odserve_search_pool_inflight",
		"Pool slots currently held by running search goroutines.",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(pool.Stats().InUse))
		})
	reg.NewGaugeFunc("odserve_search_pool_peak",
		"High-water mark of concurrently held pool slots.",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(pool.Stats().Peak))
		})
	reg.NewCounterFunc("odserve_search_pool_acquired_total",
		"Pool slots granted to searches.",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(pool.Stats().Acquired))
		})
	reg.NewCounterFunc("odserve_search_pool_starved_total",
		"Worker requests the saturated pool declined (those searches ran with fewer goroutines).",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(pool.Stats().Starved))
		})
}

// observeReplica installs the follower-side collectors: per-shard lag against
// the last-polled leader position, replication byte/segment counters, and the
// tail loop's poll health. All read from ReplicaStatuses()/Poll() per scrape —
// the same state /healthz reports — so the lag a dashboard graphs is exactly
// the lag the staleness bound enforces.
func (t *Telemetry) observeReplica(rt *router.Router) {
	reg := t.reg

	reg.NewGaugeFunc("odserve_replica_lag_records",
		"WAL records the follower trails its leader by (leader applied seq minus local), by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.LagRecords))
			}
		})
	reg.NewGaugeFunc("odserve_replica_lag_generations",
		"Constraint generations the follower trails its leader by, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.LagGenerations))
			}
		})
	reg.NewGaugeFunc("odserve_replica_applied_seq",
		"Highest WAL seq the follower has applied, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.AppliedSeq))
			}
		})
	reg.NewGaugeFunc("odserve_replica_leader_seq",
		"Leader applied seq at the last successful poll, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.LeaderSeq))
			}
		})
	reg.NewCounterFunc("odserve_replica_segments_fetched_total",
		"Segment fetches ingested from the leader, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.SegmentsFetched))
			}
		})
	reg.NewCounterFunc("odserve_replica_bytes_fetched_total",
		"Segment bytes ingested from the leader, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.BytesFetched))
			}
		})
	reg.NewCounterFunc("odserve_replica_segments_sealed_total",
		"Segments the follower sealed after fully replicating them, by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.SegmentsSealed))
			}
		})
	reg.NewCounterFunc("odserve_replica_bootstraps_total",
		"Snapshot bootstraps (replay position compacted away on the leader), by shard.",
		[]string{"shard"}, func(emit func([]string, float64)) {
			for name, rs := range rt.ReplicaStatuses() {
				emit([]string{router.Alias(name)}, float64(rs.Bootstraps))
			}
		})
	reg.NewCounterFunc("odserve_replica_polls_total",
		"Tail passes attempted against the leader.",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(rt.Poll().Polls))
		})
	reg.NewCounterFunc("odserve_replica_poll_errors_total",
		"Tail passes that failed (transport or leader errors).",
		nil, func(emit func([]string, float64)) {
			emit(nil, float64(rt.Poll().PollErrors))
		})
	reg.NewGaugeFunc("odserve_replica_synced",
		"1 once at least one tail pass has fully succeeded, else 0.",
		nil, func(emit func([]string, float64)) {
			if rt.Poll().Synced {
				emit(nil, 1)
			} else {
				emit(nil, 0)
			}
		})
	reg.NewGaugeFunc("odserve_replica_last_poll_age_seconds",
		"Seconds since the last successful tail pass (absent before the first).",
		nil, func(emit func([]string, float64)) {
			if last := rt.Poll().LastPoll; !last.IsZero() {
				emit(nil, time.Since(last).Seconds())
			}
		})
}
