package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json. The tables below are the
// program's copy of that file's metric lists; the smoke test holds the two
// equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists what a run without tracing reports on every workload, with
// the share of the parent's median by which each may worsen.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"primary_p50_us", "us", "lower", 0.25},
	{"primary_tail_us", "us", "lower", 0.25},
	{"secondary_p50_us", "us", "lower", 0.25},
	{"primary_ops_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"heap_peak_mb", "MB", "lower", 0.25},
}

// exactCounts are the per-layer counts that one client and no timers make
// repeat exactly; two run sets of one commit must agree on them to the digit.
var exactCounts = []string{
	"prover.nodes_seq", "store.wal_bytes_per_record", "odclient.requests",
	"discover.candidates", "discover.closure_pruned", "discover.refutation_pruned", "discover.data_checks",
	"discover.rows_scanned", "discover.accepted", "discover.levels", "core.sort_cache_hits", "core.sort_cache_misses",
}

// runSet is what -out writes and -compare reads: runs with where and how
// they were made.
type runSet struct {
	Env      env       `json:"env"`
	Settings config    `json:"settings"`
	Runs     []*result `json:"runs"`
}

// series groups a set's runs by workload and tracing and collects each
// metric's values in run order.
func (s *runSet) series(workload string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == traced {
			for name, v := range r.Metrics {
				out[name] = append(out[name], v.Value)
			}
		}
	}
	return out
}

// quartiles are Python's statistics.quantiles(values, n=4): the exclusive
// method, which the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// printSpread prints, per workload and metric, the median, quartiles and
// run-to-run spread of a set against the metric's bound. A spread wider than
// the bound leaves any comparison on that metric unresolved.
func printSpread(out io.Writer, set *runSet) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			vals := set.series(w, traced)
			if len(vals) == 0 {
				continue
			}
			names := sortedKeys(vals)
			fmt.Fprintf(out, "%s trace=%v: %d runs\n", w, traced, len(vals[names[0]]))
			if traced {
				for _, name := range names {
					q1, q2, q3 := quartiles(vals[name])
					fmt.Fprintf(out, "  %-36s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.3f\n", name, q2, q1, q3, spread(vals[name]))
				}
				continue
			}
			for _, m := range endToEnd {
				q1, q2, q3 := quartiles(vals[m.Name])
				verdict := "ok"
				if spread(vals[m.Name]) > m.Bound {
					verdict = "unresolved"
				}
				fmt.Fprintf(out, "  %-20s median %14.4f %-4s q1 %14.4f  q3 %14.4f  spread %6.3f  bound %.2f  %s\n",
					m.Name, q2, m.Unit, q1, q3, spread(vals[m.Name]), m.Bound, verdict)
			}
		}
	}
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// compareFiles compares two run sets, the second against the first: per
// workload and end-to-end metric it prints both medians and by how much the
// second is worse, and calls the pair unresolved when either side's own
// spread exceeds the bound. It fails when a metric is worse beyond its bound,
// when the sets ran different inputs, or when an exact count differs — two
// sets of one commit must pass.
func compareFiles(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	out := os.Stdout
	fmt.Fprintf(out, "a: %s commit %s\nb: %s commit %s\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	var disagreements int
	for _, w := range workloadNames {
		if ha, hb := a.hashes(w), b.hashes(w); ha != hb {
			fmt.Fprintf(out, "%s: workload_hash %s vs %s: the sets ran different inputs\n", w, ha, hb)
			disagreements++
			continue
		}
		va, vb := a.series(w, false), b.series(w, false)
		if len(va) > 0 && len(vb) > 0 {
			fmt.Fprintf(out, "%s: %d vs %d runs\n", w, len(va["setup_s"]), len(vb["setup_s"]))
			for _, m := range endToEnd {
				_, ma, _ := quartiles(va[m.Name])
				_, mb, _ := quartiles(vb[m.Name])
				worse := ratio(mb-ma, ma)
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "same"
				switch {
				case spread(va[m.Name]) > m.Bound || spread(vb[m.Name]) > m.Bound:
					verdict = "unresolved"
				case worse > m.Bound:
					verdict = "WORSE"
					disagreements++
				case worse < -m.Bound:
					verdict = "better"
				}
				fmt.Fprintf(out, "  %-20s a %14.4f  b %14.4f %-4s worse by %+7.3f  spread a %.3f b %.3f  bound %.2f  %s\n",
					m.Name, ma, mb, m.Unit, worse, spread(va[m.Name]), spread(vb[m.Name]), m.Bound, verdict)
			}
		}
		ta, tb := a.series(w, true), b.series(w, true)
		if len(ta) == 0 || len(tb) == 0 {
			continue
		}
		differing := 0
		for _, name := range exactCounts {
			if !constant(append(append([]float64(nil), ta[name]...), tb[name]...)) {
				fmt.Fprintf(out, "%s: exact count %s differs: %v vs %v\n", w, name, ta[name], tb[name])
				differing++
			}
		}
		fmt.Fprintf(out, "%s traced: %d of %d exact counts differ\n", w, differing, len(exactCounts))
		disagreements += differing
	}
	if disagreements > 0 {
		return fmt.Errorf("%d disagreements beyond the bounds", disagreements)
	}
	return nil
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// hashes joins the distinct workload hashes of a workload's runs, in seed
// order, so two sets compare equal only when they ran the same seeds.
func (s *runSet) hashes(workload string) string {
	seen := map[int64]string{}
	var seeds []int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if _, ok := seen[r.Seed]; !ok {
				seeds = append(seeds, r.Seed)
			}
			seen[r.Seed] = r.Hash
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := ""
	for _, sd := range seeds {
		out += seen[sd] + " "
	}
	return out
}

func readSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// perLayer lists what a traced run reports on every workload (zero where a
// layer does no work), with the direction an optimisation should move it.
var perLayer = []metricSpec{
	{Name: "odclient.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "odclient.requests", Unit: "count", Better: "lower"},
	{Name: "odclient.retries", Unit: "count", Better: "lower"},
	{Name: "server.self_us_per_op.prove", Unit: "us", Better: "lower"},
	{Name: "server.self_us_per_op.ods", Unit: "us", Better: "lower"},
	{Name: "server.self_us_per_op.rewrite", Unit: "us", Better: "lower"},
	{Name: "server.self_us_per_op.discover", Unit: "us", Better: "lower"},
	{Name: "server.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.non2xx", Unit: "count", Better: "lower"},
	{Name: "core.parse_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.key_ns_per_od", Unit: "ns", Better: "lower"},
	{Name: "core.hash_ns_per_od", Unit: "ns", Better: "lower"},
	{Name: "router.self_us_per_prove", Unit: "us", Better: "lower"},
	{Name: "router.self_us_per_mutation", Unit: "us", Better: "lower"},
	{Name: "router.backpressure_rejections", Unit: "count", Better: "lower"},
	{Name: "catalog.self_ns_per_prove", Unit: "ns", Better: "lower"},
	{Name: "catalog.tier_hits.trivial", Unit: "count", Better: "higher"},
	{Name: "catalog.tier_hits.closure", Unit: "count", Better: "higher"},
	{Name: "catalog.tier_hits.negative", Unit: "count", Better: "higher"},
	{Name: "catalog.tier_hits.memo", Unit: "count", Better: "higher"},
	{Name: "catalog.tier_hits.search", Unit: "count", Better: "lower"},
	{Name: "catalog.search_avoided_ratio", Unit: "ratio", Better: "higher"},
	{Name: "catalog.apply_us_per_mutation", Unit: "us", Better: "lower"},
	{Name: "catalog.declared", Unit: "count", Better: "lower"},
	{Name: "catalog.closure_size", Unit: "count", Better: "lower"},
	{Name: "catalog.negative_size", Unit: "count", Better: "lower"},
	{Name: "catalog.memo_entries", Unit: "count", Better: "lower"},
	{Name: "prover.self_us_per_search", Unit: "us", Better: "lower"},
	{Name: "prover.searches", Unit: "count", Better: "lower"},
	{Name: "prover.nodes", Unit: "count", Better: "lower"},
	{Name: "prover.nodes_per_search", Unit: "count", Better: "lower"},
	{Name: "prover.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "prover.widenings", Unit: "count", Better: "lower"},
	{Name: "prover.cancelled", Unit: "count", Better: "lower"},
	{Name: "prover.pool_acquired", Unit: "count", Better: "higher"},
	{Name: "prover.pool_starved", Unit: "count", Better: "lower"},
	{Name: "prover.pool_peak", Unit: "count", Better: "lower"},
	{Name: "prover.nodes_seq", Unit: "count", Better: "lower"},
	{Name: "store.append_wait_us_per_op", Unit: "us", Better: "lower"},
	{Name: "store.commits", Unit: "count", Better: "lower"},
	{Name: "store.records_per_commit", Unit: "count", Better: "higher"},
	{Name: "store.fsync_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "store.snapshots", Unit: "count", Better: "lower"},
	{Name: "store.rotations", Unit: "count", Better: "lower"},
	{Name: "store.segments_removed", Unit: "count", Better: "higher"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "rewrite.reduce_us_per_op", Unit: "us", Better: "lower"},
	{Name: "rewrite.attrs_dropped_per_op", Unit: "count", Better: "higher"},
	{Name: "discover.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "discover.candidates", Unit: "count", Better: "lower"},
	{Name: "discover.closure_pruned", Unit: "count", Better: "higher"},
	{Name: "discover.refutation_pruned", Unit: "count", Better: "higher"},
	{Name: "discover.data_checks", Unit: "count", Better: "lower"},
	{Name: "discover.rows_scanned", Unit: "count", Better: "lower"},
	{Name: "discover.check_ratio", Unit: "ratio", Better: "lower"},
	{Name: "discover.accepted", Unit: "count", Better: "higher"},
	{Name: "discover.levels", Unit: "count", Better: "lower"},
	{Name: "core.sort_cache_hits", Unit: "count", Better: "higher"},
	{Name: "core.sort_cache_misses", Unit: "count", Better: "lower"},
	{Name: "replica.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.records_applied", Unit: "count", Better: "lower"},
	{Name: "replica.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "replica.fetches", Unit: "count", Better: "lower"},
	{Name: "replica.fetched_bytes", Unit: "B", Better: "lower"},
	{Name: "replica.bootstraps", Unit: "count", Better: "lower"},
	{Name: "metrics.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.queueing_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.sum_error", Unit: "ratio", Better: "lower"},
}
