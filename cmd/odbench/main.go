// Command odbench regenerates the paper's experiments: the TPC-DS-style
// date-rewrite suites (13 base queries, 18 with the extension), the
// Example 1 order-by experiment, scaling curves for the implication
// prover and the completeness construction, the catalog experiment
// comparing cold prover calls against memoized catalog calls, and the
// batch experiment comparing single-statement /prove round trips against
// /prove/batch over a sharded daemon.
//
// Usage:
//
//	odbench -experiment tpcds13 -rows 200000
//	odbench -experiment tpcds18
//	odbench -experiment example1 -rows 100000
//	odbench -experiment prover
//	odbench -experiment armstrong
//	odbench -experiment catalog -json
//	odbench -experiment batch -json
//	odbench -experiment parallel -json
//	odbench -experiment churn -json
//	odbench -experiment client -json
//	odbench -experiment recovery -json
//	odbench -experiment saturation -json
//	odbench -experiment discover -json
//	odbench -experiment replica -json
//
// With -json, machine-readable results are additionally written to
// BENCH_<experiment>.json in the output directory (-out, default ".").
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odlib/internal/armstrong"
	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/engine"
	"odlib/internal/metrics"
	"odlib/internal/plan"
	"odlib/internal/prover"
	"odlib/internal/replica"
	"odlib/internal/rewrite"
	"odlib/internal/router"
	"odlib/internal/server"
	"odlib/internal/store"
	"odlib/internal/warehouse"
	"odlib/pkg/odclient"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "odbench:", err)
		os.Exit(1)
	}
}

// benchResult is the machine-readable outcome of one experiment, written as
// BENCH_<experiment>.json when -json is set.
type benchResult struct {
	Experiment string         `json:"experiment"`
	Params     map[string]any `json:"params,omitempty"`
	Metrics    []metric       `json:"metrics"`
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("odbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "tpcds13", "one of tpcds13, tpcds18, example1, prover, armstrong, catalog, batch, parallel, churn, client, recovery, saturation, discover, replica")
	rows := fs.Int("rows", 100_000, "fact table rows")
	days := fs.Int("days", 731, "days in the date dimension")
	seed := fs.Int64("seed", 1, "generator seed")
	jsonOut := fs.Bool("json", false, "also write BENCH_<experiment>.json")
	outDir := fs.String("out", ".", "directory for -json output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		res *benchResult
		err error
	)
	switch *experiment {
	case "tpcds13", "tpcds18":
		res, err = runTPCDS(*experiment, *rows, *days, *seed)
	case "example1":
		res, err = runExample1(*rows)
	case "prover":
		res, err = runProver()
	case "armstrong":
		res, err = runArmstrong()
	case "catalog":
		res, err = runCatalog()
	case "batch":
		res, err = runBatch(*seed)
	case "parallel":
		res, err = runParallel(*seed)
	case "churn":
		res, err = runChurn(*seed)
	case "client":
		res, err = runClient(*seed)
	case "recovery":
		res, err = runRecovery()
	case "saturation":
		res, err = runSaturation(*seed)
	case "discover":
		res, err = runDiscover(*seed)
	case "replica":
		res, err = runReplica(*seed)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		path := filepath.Join(*outDir, "BENCH_"+res.Experiment+".json")
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	return nil
}

func runTPCDS(which string, rows, days int, seed int64) (*benchResult, error) {
	cfg := warehouse.DefaultConfig()
	cfg.FactRows = rows
	cfg.Days = days
	cfg.Seed = seed
	fmt.Printf("generating warehouse: %d days, %d fact rows (seed %d)\n", cfg.Days, cfg.FactRows, cfg.Seed)
	w, err := warehouse.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Verify(); err != nil {
		return nil, err
	}
	queries := w.Queries13()
	if which == "tpcds18" {
		queries = w.Queries18()
	}
	ms, err := warehouse.RunSuite(w, queries)
	if err != nil {
		return nil, err
	}
	fmt.Printf("\n%s — baseline join plan vs OD date-surrogate rewrite\n", which)
	fmt.Print(warehouse.FormatTable(ms))
	fmt.Println("\npaper reference: 13 rewrite-eligible TPC-DS queries, average gain ~48% on DB2 9.7;")
	fmt.Println("the prototype later rewrote 18 queries. Absolute numbers differ (different engine),")
	fmt.Println("the shape — every query gains, narrower windows gain more — reproduces.")

	res := &benchResult{
		Experiment: which,
		Params:     map[string]any{"rows": rows, "days": days, "seed": seed},
	}
	var avg float64
	for _, m := range ms {
		res.Metrics = append(res.Metrics,
			metric{Name: m.Name + "/cost_gain", Value: m.CostGain(), Unit: "percent"},
			metric{Name: m.Name + "/time_gain", Value: m.TimeGain(), Unit: "percent"},
		)
		avg += m.CostGain()
	}
	if len(ms) > 0 {
		res.Metrics = append(res.Metrics,
			metric{Name: "avg_cost_gain", Value: avg / float64(len(ms)), Unit: "percent"})
	}
	return res, nil
}

func runExample1(rows int) (*benchResult, error) {
	tbl, err := engine.NewTable("sales", core.L("year", "quarter", "month", "amount"))
	if err != nil {
		return nil, err
	}
	n := 0
	for n < rows {
		y := 2000 + n%5
		m := 1 + n%12
		if err := tbl.Insert(
			core.Int(int64(y)), core.Int(int64((m-1)/3+1)), core.Int(int64(m)),
			core.Int(int64(n%997))); err != nil {
			return nil, err
		}
		n++
	}
	if _, err := tbl.BuildIndex("ym", core.L("year", "month")); err != nil {
		return nil, err
	}
	q := plan.Query{
		Table:   tbl,
		GroupBy: core.L("year", "quarter", "month"),
		Aggs:    []engine.Agg{{Kind: engine.Sum, Attr: "amount", As: "sum_amount"}},
		OrderBy: core.L("year", "quarter", "month"),
	}
	ods, err := core.ParseStatements("[month] -> [quarter]")
	if err != nil {
		return nil, err
	}
	res := &benchResult{Experiment: "example1", Params: map[string]any{"rows": rows}}
	for _, mode := range []struct {
		name string
		key  string
		c    *rewrite.Constraints
	}{
		{"baseline (no OD)", "baseline", rewrite.NewConstraints(nil, nil)},
		{"with [month] -> [quarter]", "with_od", rewrite.NewConstraints(nil, ods)},
	} {
		var stats engine.Stats
		p := plan.NewPlanner(mode.c)
		t0 := time.Now()
		pl, err := p.PlanQuery(q, &stats)
		if err != nil {
			return nil, err
		}
		out, err := pl.Execute(&stats)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		fmt.Printf("\n%s: %d groups in %v, cost %d, sorts %d\n",
			mode.name, len(out), elapsed, stats.Cost(), stats.Sorts)
		fmt.Println(pl.Explain())
		res.Metrics = append(res.Metrics,
			metric{Name: mode.key + "/time", Value: float64(elapsed.Nanoseconds()), Unit: "ns"},
			metric{Name: mode.key + "/cost", Value: float64(stats.Cost()), Unit: "cost"},
			metric{Name: mode.key + "/sorts", Value: float64(stats.Sorts), Unit: "count"},
		)
	}
	return res, nil
}

func runProver() (*benchResult, error) {
	fmt.Println("implication cost vs mentioned attributes on a plain chain (≤ 3^n patterns, co-NP-complete in general; propagation decides every link on a two-attribute prefix, so these grow polynomially)")
	fmt.Printf("%8s %14s %14s\n", "attrs", "implied", "refuted")
	res := &benchResult{Experiment: "prover"}
	for n := 4; n <= 12; n += 2 {
		m, target, refuted := proverInstance(n)
		p := prover.New(m)
		t0 := time.Now()
		if _, err := p.Implies(target); err != nil {
			return nil, err
		}
		dImplied := time.Since(t0)
		p2 := prover.New(m)
		t1 := time.Now()
		if _, err := p2.Implies(refuted); err != nil {
			return nil, err
		}
		dRefuted := time.Since(t1)
		fmt.Printf("%8d %14v %14v\n", n, dImplied, dRefuted)
		res.Metrics = append(res.Metrics,
			metric{Name: fmt.Sprintf("implied/attrs=%d", n), Value: float64(dImplied.Nanoseconds()), Unit: "ns"},
			metric{Name: fmt.Sprintf("refuted/attrs=%d", n), Value: float64(dRefuted.Nanoseconds()), Unit: "ns"},
		)
	}
	return res, nil
}

// proverInstance builds a transitive chain A0 ↦ A1 ↦ … over n attributes,
// an implied query (ends of the chain) and a refuted one (reversed).
func proverInstance(n int) (m []core.OD, implied, refuted core.OD) {
	attr := func(i int) core.Attribute { return core.Attribute(fmt.Sprintf("A%d", i)) }
	for i := 0; i+1 < n; i++ {
		m = append(m, core.NewOD(core.List{attr(i)}, core.List{attr(i + 1)}))
	}
	implied = core.NewOD(core.List{attr(0)}, core.List{attr(n - 1)})
	refuted = core.NewOD(core.List{attr(n - 1)}, core.List{attr(0)})
	return m, implied, refuted
}

func runArmstrong() (*benchResult, error) {
	fmt.Println("completeness construction sizes (canonical = paper's split/swap; enumeration = all satisfying patterns)")
	fmt.Printf("%8s %12s %12s %12s %12s\n", "attrs", "canon rows", "canon time", "enum rows", "enum time")
	res := &benchResult{Experiment: "armstrong"}
	for n := 2; n <= 5; n++ {
		universe := make(core.List, n)
		for i := range universe {
			universe[i] = core.Attribute(fmt.Sprintf("A%d", i))
		}
		var m []core.OD
		for i := 0; i+1 < n; i++ {
			m = append(m, core.NewOD(core.List{universe[i]}, core.List{universe[i+1]}))
		}
		b := armstrong.NewBuilder(0)
		t0 := time.Now()
		canon, err := b.CanonicalTable(m, universe)
		if err != nil {
			return nil, err
		}
		dCanon := time.Since(t0)
		t1 := time.Now()
		enum, err := armstrong.EnumerationTable(m, universe)
		if err != nil {
			return nil, err
		}
		dEnum := time.Since(t1)
		fmt.Printf("%8d %12d %12v %12d %12v\n", n, canon.Len(), dCanon, enum.Len(), dEnum)
		res.Metrics = append(res.Metrics,
			metric{Name: fmt.Sprintf("canon_rows/attrs=%d", n), Value: float64(canon.Len()), Unit: "rows"},
			metric{Name: fmt.Sprintf("enum_rows/attrs=%d", n), Value: float64(enum.Len()), Unit: "rows"},
		)
	}
	return res, nil
}

// runBatch measures what the batch endpoints buy over the wire: the same
// prove workload sent as one-statement /prove requests versus /prove/batch
// chunks, against a real HTTP daemon over a sharded catalog. The workload is
// the production shape the router was built for — 1k declared ODs spread
// over 8 schema shards, query popularity Zipf-distributed over the shards
// (hot schemas dominate, cold ones tail off) — so a batch regularly mixes
// shards and the router must group per shard, answer each group against one
// snapshot, and merge in order.
func runBatch(seed int64) (*benchResult, error) {
	const (
		shards     = 8
		chains     = 25 // disjoint transitive chains per shard
		chainLen   = 5  // edges per chain: 8 * 25 * 5 = 1k declared ODs
		statements = 4096
		batchSize  = 128
		zipfS      = 1.3
	)
	rng := rand.New(rand.NewSource(seed))

	rt, err := router.Open(router.Options{ShardByPrefix: true})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	ts := httptest.NewServer(server.New(rt))
	defer ts.Close()
	client := ts.Client()

	// Populate: each shard holds many short disjoint chains
	// s<k>_c<c>_a0 -> ... -> s<k>_c<c>_a5, so implication questions span
	// real transitive structure while staying within the prover's
	// entangled-attribute budget. Attribute prefixes route statements to
	// their shard without explicit schemas.
	attr := func(sh, c, i int) string { return fmt.Sprintf("s%d_c%d_a%d", sh, c, i) }
	for sh := 0; sh < shards; sh++ {
		var decl []string
		for c := 0; c < chains; c++ {
			for i := 0; i < chainLen; i++ {
				decl = append(decl, fmt.Sprintf("[%s] -> [%s]", attr(sh, c, i), attr(sh, c, i+1)))
			}
		}
		body, err := json.Marshal(map[string]any{"declare": decl})
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(ts.URL+"/ods/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("populate shard %d: status %d", sh, resp.StatusCode)
		}
	}

	// Query pool per shard: implied chain spans and refuted reversals.
	pool := make([][]string, shards)
	for sh := 0; sh < shards; sh++ {
		for i := 0; i < 16; i++ {
			c := rng.Intn(chains)
			lo := rng.Intn(chainLen)
			hi := lo + 1 + rng.Intn(chainLen+1-lo-1)
			stmt := fmt.Sprintf("[%s] -> [%s]", attr(sh, c, lo), attr(sh, c, hi))
			if i%4 == 3 { // a quarter of the pool is refuted reversals
				stmt = fmt.Sprintf("[%s] -> [%s]", attr(sh, c, hi), attr(sh, c, lo))
			}
			pool[sh] = append(pool[sh], stmt)
		}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, shards-1)
	workload := make([]string, statements)
	for i := range workload {
		sh := int(zipf.Uint64())
		workload[i] = pool[sh][rng.Intn(len(pool[sh]))]
	}

	proveOne := func(stmt string) error {
		body, _ := json.Marshal(map[string]string{"statement": stmt})
		resp, err := client.Post(ts.URL+"/prove", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("prove: status %d", resp.StatusCode)
		}
		var out struct {
			Implied bool `json:"implied"`
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	}
	proveBatch := func(stmts []string) error {
		body, _ := json.Marshal(map[string]any{"statements": stmts})
		resp, err := client.Post(ts.URL+"/prove/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("prove/batch: status %d", resp.StatusCode)
		}
		var out struct {
			Results []struct {
				Implied bool `json:"implied"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		if len(out.Results) != len(stmts) {
			return fmt.Errorf("prove/batch: %d results for %d statements", len(out.Results), len(stmts))
		}
		return nil
	}

	// Warm the verdict memos once so both paths measure transport and
	// snapshot amortization, not first-touch prover runs.
	for sh := range pool {
		if err := proveBatch(pool[sh]); err != nil {
			return nil, err
		}
	}

	fmt.Printf("batch experiment — %d ODs over %d shards, %d statements, Zipf(s=%.1f) shard popularity\n",
		shards*chains*chainLen, shards, statements, zipfS)

	t0 := time.Now()
	for _, stmt := range workload {
		if err := proveOne(stmt); err != nil {
			return nil, err
		}
	}
	single := time.Since(t0)

	t1 := time.Now()
	for lo := 0; lo < len(workload); lo += batchSize {
		hi := min(lo+batchSize, len(workload))
		if err := proveBatch(workload[lo:hi]); err != nil {
			return nil, err
		}
	}
	batched := time.Since(t1)

	singleRate := float64(statements) / single.Seconds()
	batchRate := float64(statements) / batched.Seconds()
	speedup := batchRate / singleRate
	fmt.Printf("%12s %14s %16s\n", "", "total", "statements/sec")
	fmt.Printf("%12s %14v %16.0f\n", "single", single, singleRate)
	fmt.Printf("%12s %14v %16.0f\n", "batched", batched, batchRate)
	fmt.Printf("speedup: %.1fx (batch size %d)\n", speedup, batchSize)
	if speedup < 5 {
		// A warning, not an error: wall-clock ratios on loaded machines can
		// absorb scheduler stalls. Steady state is well above the 5x floor.
		fmt.Printf("WARNING: speedup below the expected 5x floor\n")
	}

	return &benchResult{
		Experiment: "batch",
		Params: map[string]any{
			"ods": shards * chains * chainLen, "shards": shards, "statements": statements,
			"batch_size": batchSize, "zipf_s": zipfS, "seed": seed,
		},
		Metrics: []metric{
			{Name: "single/total", Value: float64(single.Nanoseconds()), Unit: "ns"},
			{Name: "batched/total", Value: float64(batched.Nanoseconds()), Unit: "ns"},
			{Name: "single/stmts_per_sec", Value: singleRate, Unit: "1/s"},
			{Name: "batched/stmts_per_sec", Value: batchRate, Unit: "1/s"},
			{Name: "speedup", Value: speedup, Unit: "x"},
		},
	}, nil
}

// underContext puts a list under a context attribute: [ctx, l...]. The
// search experiments name the context so that it sorts after every other
// attribute of its instance; the prover assigns signs in name order and cuts
// a subtree as soon as an assigned prefix decides an OD, so an OD led by the
// last attribute can be decided on no prefix at all. With the context tied
// such ODs constrain exactly as their context-free forms do (with it strict
// they all hold), and the questions built from them still enumerate the full
// sign tree — the searches the worker pool exists for. Without the context
// the same instances fall to propagation in a few hundred nodes.
func underContext(ctx core.Attribute, l core.List) core.List {
	return append(core.List{ctx}, l...)
}

// deepSwapQuestion builds one refuted implication whose every counterexample
// needs a Greater sign on the second-sorted attribute — the region the
// sequential depth-first search reaches last — with every OD under the
// context <tag>_zz. With k padding attributes the sequential search grinds
// ≈ 3.5·3^(k+1) nodes in each of its k+2 widening rounds; a prefix-sharded
// worker pool with cancel-on-first-witness finds each round's candidate near
// the start of a late block and stops the whole pool, so the speedup holds
// even without spare cores. tag disambiguates attribute names across
// instances.
func deepSwapQuestion(tag string, k int) (m []core.OD, target core.OD) {
	pad := make(core.List, k)
	for i := range pad {
		pad[i] = core.Attribute(fmt.Sprintf("%s_p%02d", tag, i))
	}
	aa := core.Attribute(tag + "_aa")
	ab := core.Attribute(tag + "_ab")
	zz := core.Attribute(tag + "_zz")
	lhs := append(core.List{aa}, pad...)
	m = append(m, core.NewOD(underContext(zz, lhs), underContext(zz, append(lhs.Clone(), ab))))
	for _, p := range pad {
		m = append(m, core.NewOD(underContext(zz, core.List{ab}), underContext(zz, core.List{p})))
	}
	return m, core.NewOD(underContext(zz, lhs), underContext(zz, core.List{ab}))
}

// chainTailQuestion builds a transitive chain of n-1 attributes under the
// context <tag>_zz and the reversal of its last link: refuted, with the
// counterexample (Less down the whole chain, Equal on the tail) sitting
// roughly 40% into the sequential enumeration.
func chainTailQuestion(tag string, n int) (m []core.OD, target core.OD) {
	zz := core.Attribute(tag + "_zz")
	link := func(i int) core.List {
		return underContext(zz, core.List{core.Attribute(fmt.Sprintf("%s_a%02d", tag, i))})
	}
	for i := 0; i+2 < n; i++ {
		m = append(m, core.NewOD(link(i), link(i+1)))
	}
	return m, core.NewOD(link(n-2), link(n-3))
}

// runParallel measures what the goroutine-split search buys on refuted-heavy,
// search-exhausting workloads: the same question set decided with 1, 2 and
// GOMAXPROCS-or-4 workers, fresh provers throughout (no memo — this measures
// the search, not the cache). Counterexamples in these instances hide in the
// subtrees sequential DFS visits last, so the pool's evenly spaced block
// starts plus cancel-on-first-witness cut total nodes by an order of
// magnitude — wall-clock throughput rises even on a single core, and scales
// further with real ones.
func runParallel(seed int64) (*benchResult, error) {
	const (
		deepSwaps  = 24
		chainTails = 8
		padAttrs   = 9 // 12-attr universe with the context: ≈ 0.8M nodes per question sequential
		chainLen   = 12
	)
	parallelWorkers := runtime.GOMAXPROCS(0)
	if parallelWorkers < 4 {
		parallelWorkers = 4
	}

	type question struct {
		m      []core.OD
		target core.OD
	}
	var questions []question
	for i := 0; i < deepSwaps; i++ {
		m, target := deepSwapQuestion(fmt.Sprintf("q%02d", i), padAttrs)
		questions = append(questions, question{m, target})
	}
	for i := 0; i < chainTails; i++ {
		m, target := chainTailQuestion(fmt.Sprintf("r%02d", i), chainLen)
		questions = append(questions, question{m, target})
	}
	_ = seed // the workload is deterministic; seed kept for interface symmetry

	fmt.Printf("parallel experiment — %d refuted-heavy questions (%d deep-swap + %d chain-tail), GOMAXPROCS=%d\n",
		len(questions), deepSwaps, chainTails, runtime.GOMAXPROCS(0))
	fmt.Printf("%10s %14s %16s %14s\n", "workers", "total", "questions/sec", "nodes")

	res := &benchResult{
		Experiment: "parallel",
		Params: map[string]any{
			"questions": len(questions), "deep_swaps": deepSwaps, "chain_tails": chainTails,
			"pad_attrs": padAttrs, "chain_len": chainLen,
			"gomaxprocs": runtime.GOMAXPROCS(0), "parallel_workers": parallelWorkers,
		},
	}
	rates := map[int]float64{}
	nodeTotals := map[int]uint64{}
	for _, workers := range []int{1, 2, parallelWorkers} {
		var counters prover.Counters
		t0 := time.Now()
		for _, q := range questions {
			p := prover.New(q.m, prover.WithWorkers(workers), prover.WithCounters(&counters))
			ok, w, err := p.ImpliesWitness(q.target)
			if err != nil {
				return nil, err
			}
			if ok || w == nil {
				return nil, fmt.Errorf("parallel: %s should be refuted with a witness", q.target)
			}
		}
		total := time.Since(t0)
		rate := float64(len(questions)) / total.Seconds()
		rates[workers] = rate
		nodes := counters.Nodes.Load()
		nodeTotals[workers] = nodes
		fmt.Printf("%10d %14v %16.0f %14d\n", workers, total, rate, nodes)
		res.Metrics = append(res.Metrics,
			metric{Name: fmt.Sprintf("workers=%d/total", workers), Value: float64(total.Nanoseconds()), Unit: "ns"},
			metric{Name: fmt.Sprintf("workers=%d/questions_per_sec", workers), Value: rate, Unit: "1/s"},
			metric{Name: fmt.Sprintf("workers=%d/nodes", workers), Value: float64(nodes), Unit: "count"},
		)
	}
	speedup := rates[parallelWorkers] / rates[1]
	// node_ratio is the scheduler-independent form of the same win: how many
	// fewer tree nodes the pool visits before the workload's refutations are
	// all found. CI gates this ratio — a loaded runner can smear wall-clock
	// throughput, but not the enumeration's node counts.
	nodeRatio := float64(nodeTotals[1]) / float64(max(nodeTotals[parallelWorkers], 1))
	fmt.Printf("speedup: %.1fx wall clock, %.1fx nodes (%d workers vs 1)\n",
		speedup, nodeRatio, parallelWorkers)
	if speedup < 1.5 {
		// A warning, not an error: a measurement on a loaded box must not
		// masquerade as a correctness failure.
		fmt.Printf("WARNING: wall-clock speedup below the expected 1.5x floor\n")
	}
	res.Metrics = append(res.Metrics,
		metric{Name: "speedup", Value: speedup, Unit: "x"},
		metric{Name: "node_ratio", Value: nodeRatio, Unit: "x"})
	return res, nil
}

// runChurn interleaves catalog mutations with prove traffic: every mutation
// bumps the generation and wipes the memo, so the experiment prices exactly
// what a generation bump costs each verdict tier. Unrelated churn (constraints
// over foreign attributes) must NOT force re-searches of standing refutations
// — the negative closure revalidates its witnesses and keeps serving them in
// O(1) — while chain-cutting churn genuinely invalidates and must re-search.
func runChurn(seed int64) (*benchResult, error) {
	const (
		chains      = 6
		chainLen    = 5 // 6 attrs per chain
		generations = 60
		churnRatio  = 5 // 1 in churnRatio mutations cuts a chain link
	)
	rng := rand.New(rand.NewSource(seed))
	attr := func(c, i int) core.Attribute { return core.Attribute(fmt.Sprintf("g%d_a%d", c, i)) }

	cat := catalog.New(catalog.WithWorkers(2))
	var links []core.OD
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			links = append(links, core.NewOD(core.List{attr(c, i)}, core.List{attr(c, i+1)}))
		}
	}
	cat.Add(links...)

	// Question pool: refuted reversals (negative-closure material), implied
	// spans (closure tier) and order-compat forms (memo/search tier).
	var pool [][]core.OD
	for c := 0; c < chains; c++ {
		pool = append(pool,
			[]core.OD{core.NewOD(core.List{attr(c, chainLen)}, core.List{attr(c, 0)})}, // reversal: refuted
			[]core.OD{core.NewOD(core.List{attr(c, 0)}, core.List{attr(c, chainLen)})}, // span: closure hit
			core.OrderCompat(core.List{attr(c, 0)}, core.List{attr(c, 2)}),             // implied, search-only
		)
	}

	warm := func() error {
		res, _ := cat.ProveEach(pool)
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("churn: question %d: %w", i, r.Err)
			}
		}
		return nil
	}
	if err := warm(); err != nil {
		return nil, err
	}

	before := cat.Stats()
	var mutTime, proveTime time.Duration
	cut := -1 // index of the currently cut link, -1 when intact
	for g := 0; g < generations; g++ {
		t0 := time.Now()
		switch {
		case cut >= 0:
			// Restore the cut link first so the catalog returns to steady
			// state before the next churn step.
			cat.Add(links[cut])
			cut = -1
		case g%churnRatio == churnRatio-1:
			cut = rng.Intn(len(links))
			cat.Remove(links[cut])
		default:
			// Unrelated churn: toggle a constraint over foreign attributes.
			od := core.NewOD(
				core.List{core.Attribute(fmt.Sprintf("x%d", g))},
				core.List{core.Attribute(fmt.Sprintf("y%d", g))})
			cat.Add(od)
		}
		mutTime += time.Since(t0)

		t1 := time.Now()
		if err := warm(); err != nil {
			return nil, err
		}
		proveTime += time.Since(t1)
	}
	after := cat.Stats()

	proves := generations * len(pool)
	d := func(get func(catalog.Stats) uint64) uint64 { return get(after) - get(before) }
	searches := d(func(s catalog.Stats) uint64 { return s.Tiers.Search })
	negHits := d(func(s catalog.Stats) uint64 { return s.Tiers.Negative })
	memoHits := d(func(s catalog.Stats) uint64 { return s.Tiers.Memo })
	closureHits := d(func(s catalog.Stats) uint64 { return s.Tiers.Closure })
	proveRate := float64(proves) / proveTime.Seconds()

	fmt.Printf("churn experiment — %d generations over %d ODs, %d proves/generation\n",
		generations, len(links), len(pool))
	fmt.Printf("%22s %12v\n", "mutation time (avg)", mutTime/time.Duration(generations))
	fmt.Printf("%22s %12.0f\n", "proves/sec", proveRate)
	fmt.Printf("%22s %12.2f\n", "searches/generation", float64(searches)/float64(generations))
	fmt.Printf("tier hits per generation: closure %.1f, negative %.1f, memo %.1f\n",
		float64(closureHits)/float64(generations),
		float64(negHits)/float64(generations),
		float64(memoHits)/float64(generations))
	fmt.Printf("negative closure resident: %d (survived %d generation bumps)\n",
		after.Negative, after.Generation-before.Generation)

	return &benchResult{
		Experiment: "churn",
		Params: map[string]any{
			"chains": chains, "chain_len": chainLen, "generations": generations,
			"pool": len(pool), "churn_ratio": churnRatio, "seed": seed,
		},
		Metrics: []metric{
			{Name: "proves_per_sec", Value: proveRate, Unit: "1/s"},
			{Name: "mutation_avg", Value: float64(mutTime.Nanoseconds()) / float64(generations), Unit: "ns"},
			{Name: "searches_per_generation", Value: float64(searches) / float64(generations), Unit: "count"},
			{Name: "negative_hits_per_generation", Value: float64(negHits) / float64(generations), Unit: "count"},
			{Name: "memo_hits_per_generation", Value: float64(memoHits) / float64(generations), Unit: "count"},
			{Name: "closure_hits_per_generation", Value: float64(closureHits) / float64(generations), Unit: "count"},
			{Name: "negative_resident", Value: float64(after.Negative), Unit: "count"},
		},
	}, nil
}

// runClient measures what pkg/odclient's coalescing, pipelining and
// generation-keyed cache buy under the workload the paper's optimizer
// integration implies: many concurrent sessions asking bursts of
// near-duplicate implication questions. 32 goroutines issue Zipf-skewed
// prove traffic against a live daemon twice — once through a direct client
// (every Prove is one HTTP request) and once through a coalesced+pipelined+
// cached client — and the daemon counts the requests it actually observes.
// The request-count ratio is scheduler-independent (unlike wall clock), so
// CI gates a 2x floor on it.
func runClient(seed int64) (*benchResult, error) {
	const (
		shards     = 4
		chains     = 12
		chainLen   = 5 // 4 * 12 * 5 = 240 declared ODs
		goroutines = 32
		provesPerG = 256 // 8192 proves per run
		poolSize   = 16  // distinct statements per shard
		zipfS      = 1.3
	)
	rng := rand.New(rand.NewSource(seed))

	rt, err := router.Open(router.Options{ShardByPrefix: true})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	// observed counts every request the daemon actually serves — the
	// number the client-side machinery exists to shrink.
	var observed atomic.Int64
	srv := server.New(rt)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		observed.Add(1)
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// Populate: disjoint transitive chains per shard, routed by attribute
	// prefix (same shape as the batch experiment).
	attr := func(sh, c, i int) string { return fmt.Sprintf("s%d_c%d_a%d", sh, c, i) }
	seedClient, err := odclient.New(ts.URL, odclient.WithHTTPClient(ts.Client()))
	if err != nil {
		return nil, err
	}
	defer seedClient.Close()
	for sh := 0; sh < shards; sh++ {
		var decl []string
		for c := 0; c < chains; c++ {
			for i := 0; i < chainLen; i++ {
				decl = append(decl, fmt.Sprintf("[%s] -> [%s]", attr(sh, c, i), attr(sh, c, i+1)))
			}
		}
		if _, err := seedClient.Mutate(context.Background(), "", decl, nil); err != nil {
			return nil, fmt.Errorf("populate shard %d: %w", sh, err)
		}
	}

	// Statement pool per shard: implied chain spans and refuted reversals.
	// Query popularity is Zipf over shards and uniform within a shard's
	// pool, so hot statements recur across goroutines — the burst shape
	// coalescing and the cache are built for.
	pool := make([][]string, shards)
	for sh := 0; sh < shards; sh++ {
		for i := 0; i < poolSize; i++ {
			c := rng.Intn(chains)
			lo := rng.Intn(chainLen)
			hi := lo + 1 + rng.Intn(chainLen-lo)
			stmt := fmt.Sprintf("[%s] -> [%s]", attr(sh, c, lo), attr(sh, c, hi))
			if i%4 == 3 {
				stmt = fmt.Sprintf("[%s] -> [%s]", attr(sh, c, hi), attr(sh, c, lo))
			}
			pool[sh] = append(pool[sh], stmt)
		}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, shards-1)
	workload := make([]string, goroutines*provesPerG)
	for i := range workload {
		sh := int(zipf.Uint64())
		workload[i] = pool[sh][rng.Intn(len(pool[sh]))]
	}

	// run drives the shared workload through one client from `goroutines`
	// goroutines and reports elapsed time and server-observed requests.
	run := func(c *odclient.Client) (time.Duration, int64, error) {
		observed.Store(0)
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		t0 := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g * provesPerG; i < (g+1)*provesPerG; i++ {
					if _, err := c.Prove(context.Background(), "", workload[i]); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return 0, 0, err
			}
		}
		return elapsed, observed.Load(), nil
	}

	fmt.Printf("client experiment — %d ODs over %d shards, %d goroutines x %d proves, Zipf(s=%.1f) shard popularity\n",
		shards*chains*chainLen, shards, goroutines, provesPerG, zipfS)

	direct, err := odclient.New(ts.URL,
		odclient.WithHTTPClient(ts.Client()),
		odclient.WithCoalescing(false))
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	directTime, directReqs, err := run(direct)
	if err != nil {
		return nil, err
	}

	// The full client: coalescing, a 2ms/128-statement pipeline window and
	// a generation-keyed cache with a 250ms staleness bound — stale-view
	// /generation polls land in the same observed request count, so the
	// reduction is honest about the cache's revalidation traffic.
	coalesced, err := odclient.New(ts.URL,
		odclient.WithHTTPClient(ts.Client()),
		odclient.WithPipelining(2*time.Millisecond, 128),
		odclient.WithCache(4096, 250*time.Millisecond))
	if err != nil {
		return nil, err
	}
	defer coalesced.Close()
	coalescedTime, coalescedReqs, err := run(coalesced)
	if err != nil {
		return nil, err
	}

	proves := float64(goroutines * provesPerG)
	reduction := float64(directReqs) / float64(max(coalescedReqs, 1))
	st := coalesced.Stats()
	fmt.Printf("%12s %14s %16s %14s\n", "", "total", "proves/sec", "requests")
	fmt.Printf("%12s %14v %16.0f %14d\n", "direct", directTime, proves/directTime.Seconds(), directReqs)
	fmt.Printf("%12s %14v %16.0f %14d\n", "coalesced", coalescedTime, proves/coalescedTime.Seconds(), coalescedReqs)
	fmt.Printf("request reduction: %.1fx (cache hits %d, coalesce joins %d, %d batches of %d statements)\n",
		reduction, st.CacheHits, st.CoalesceJoins, st.PipelineBatches, st.PipelineStatements)
	if reduction < 2 {
		// A warning, not an error: CI evaluates the JSON, humans the text.
		fmt.Printf("WARNING: request reduction below the expected 2x floor\n")
	}

	return &benchResult{
		Experiment: "client",
		Params: map[string]any{
			"ods": shards * chains * chainLen, "shards": shards,
			"goroutines": goroutines, "proves": int(proves),
			"pool_per_shard": poolSize, "zipf_s": zipfS, "seed": seed,
		},
		Metrics: []metric{
			{Name: "direct/total", Value: float64(directTime.Nanoseconds()), Unit: "ns"},
			{Name: "coalesced/total", Value: float64(coalescedTime.Nanoseconds()), Unit: "ns"},
			{Name: "direct/proves_per_sec", Value: proves / directTime.Seconds(), Unit: "1/s"},
			{Name: "coalesced/proves_per_sec", Value: proves / coalescedTime.Seconds(), Unit: "1/s"},
			{Name: "direct/requests", Value: float64(directReqs), Unit: "count"},
			{Name: "coalesced/requests", Value: float64(coalescedReqs), Unit: "count"},
			{Name: "request_reduction", Value: reduction, Unit: "x"},
			{Name: "cache_hits", Value: float64(st.CacheHits), Unit: "count"},
			{Name: "coalesce_joins", Value: float64(st.CoalesceJoins), Unit: "count"},
			{Name: "pipeline_batches", Value: float64(st.PipelineBatches), Unit: "count"},
		},
	}, nil
}

// runRecovery prices what background WAL compaction buys at restart. Two
// data dirs take the identical churn-heavy workload — a base constraint set
// plus thousands of paired declare/remove toggles, the burst-then-retract
// shape set-based OD discovery emits — ending in the identical catalog
// state. One dir never compacts, so recovery replays the whole toggle
// history; the other compacts on cadence (plus one final pass and a
// realistic uncompacted tail), so recovery loads a small snapshot and a
// short suffix. The recovery-time ratio is the experiment; CI gates a 2x
// floor. Mutation-latency percentiles during the compacted run ride along:
// with snapshots off the apply path, writers must not feel the compactor.
func runRecovery() (*benchResult, error) {
	const (
		baseODs  = 64   // steady-state declared chain
		toggles  = 1500 // declare/remove pairs appended after the base set
		togSize  = 8    // ODs per toggle record
		cadence  = 256  // compaction nudge cadence (records) on the compacted dir
		segBytes = 64 << 10
		tail     = 32 // records left uncompacted after the final pass
		reps     = 3  // recovery timings per dir; min wins (cold cache noise)
	)

	// populate drives the identical workload into a fresh router over dir
	// and returns per-mutation wall-clock latencies.
	populate := func(dir string, opt store.Options, compactFinal bool) ([]time.Duration, error) {
		rt, err := router.Open(router.Options{DataDir: dir, Store: opt})
		if err != nil {
			return nil, err
		}
		defer rt.Close()
		lat := make([]time.Duration, 0, 2*toggles+1)
		mutate := func(remove bool, stmts []core.OD) error {
			t0 := time.Now()
			if remove {
				_, err = rt.Remove("", stmts)
			} else {
				_, err = rt.Declare("", stmts)
			}
			lat = append(lat, time.Since(t0))
			return err
		}
		// Disjoint pairs, not a chain: the experiment prices log length at
		// recovery, and a chain's quadratic closure would drown that signal
		// in closure maintenance on both sides of the comparison.
		base := make([]core.OD, baseODs)
		for i := range base {
			base[i] = core.NewOD(
				core.List{core.Attribute(fmt.Sprintf("b%d", i))},
				core.List{core.Attribute(fmt.Sprintf("c%d", i))})
		}
		if err := mutate(false, base); err != nil {
			return nil, err
		}
		for i := 0; i < toggles; i++ {
			batch := make([]core.OD, togSize)
			for j := range batch {
				batch[j] = core.NewOD(
					core.List{core.Attribute(fmt.Sprintf("t%d_%d", i, j))},
					core.List{core.Attribute(fmt.Sprintf("u%d_%d", i, j))})
			}
			if err := mutate(false, batch); err != nil {
				return nil, err
			}
			if err := mutate(true, batch); err != nil {
				return nil, err
			}
		}
		if compactFinal {
			if _, err := rt.SnapshotAll(); err != nil {
				return nil, err
			}
			// A realistic steady-state tail: the records that landed since
			// the last compaction and still await the next one.
			for i := 0; i < tail/2; i++ {
				batch := []core.OD{core.NewOD(
					core.List{core.Attribute(fmt.Sprintf("z%d", i))},
					core.List{core.Attribute(fmt.Sprintf("w%d", i))})}
				if err := mutate(false, batch); err != nil {
					return nil, err
				}
				if err := mutate(true, batch); err != nil {
					return nil, err
				}
			}
		}
		return lat, nil
	}

	// recoverTime opens the populated dir and clocks full recovery —
	// snapshot load, WAL replay across segments, catalog rebuild.
	recoverTime := func(dir string) (time.Duration, int, error) {
		best := time.Duration(0)
		replayed := 0
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			rt, err := router.Open(router.Options{DataDir: dir})
			if err != nil {
				return 0, 0, err
			}
			d := time.Since(t0)
			replayed = rt.Stats()[router.DefaultShard].Store.Recovery.Replayed
			rt.Close()
			if r == 0 || d < best {
				best = d
			}
		}
		return best, replayed, nil
	}

	tmp, err := os.MkdirTemp("", "odbench-recovery-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	records := 1 + 2*toggles

	fmt.Printf("recovery experiment — %d base ODs, %d toggle records of %d ODs, cadence %d\n",
		baseODs, 2*toggles, togSize, cadence)

	uncompactedDir := filepath.Join(tmp, "uncompacted")
	if _, err := populate(uncompactedDir, store.Options{SegmentBytes: segBytes}, false); err != nil {
		return nil, err
	}
	uncompactedTime, uncompactedReplay, err := recoverTime(uncompactedDir)
	if err != nil {
		return nil, err
	}

	compactedDir := filepath.Join(tmp, "compacted")
	lat, err := populate(compactedDir,
		store.Options{SegmentBytes: segBytes, SnapshotEvery: cadence}, true)
	if err != nil {
		return nil, err
	}
	compactedTime, compactedReplay, err := recoverTime(compactedDir)
	if err != nil {
		return nil, err
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p := func(q float64) time.Duration { return lat[min(int(q*float64(len(lat))), len(lat)-1)] }
	speedup := float64(uncompactedTime) / float64(max(compactedTime, 1))

	fmt.Printf("%14s %14s %16s\n", "", "recovery", "records replayed")
	fmt.Printf("%14s %14v %16d\n", "uncompacted", uncompactedTime, uncompactedReplay)
	fmt.Printf("%14s %14v %16d\n", "compacted", compactedTime, compactedReplay)
	fmt.Printf("recovery speedup: %.1fx\n", speedup)
	fmt.Printf("mutation latency with compactions firing: p50 %v, p99 %v, max %v\n",
		p(0.50), p(0.99), lat[len(lat)-1])
	if speedup < 2 {
		// A warning, not an error: CI evaluates the JSON, humans the text.
		fmt.Printf("WARNING: recovery speedup below the expected 2x floor\n")
	}

	return &benchResult{
		Experiment: "recovery",
		Params: map[string]any{
			"base_ods": baseODs, "toggle_records": 2 * toggles, "toggle_size": togSize,
			"records": records, "cadence": cadence, "segment_bytes": segBytes, "tail": tail,
		},
		Metrics: []metric{
			{Name: "uncompacted/recovery", Value: float64(uncompactedTime.Nanoseconds()), Unit: "ns"},
			{Name: "uncompacted/replayed", Value: float64(uncompactedReplay), Unit: "count"},
			{Name: "compacted/recovery", Value: float64(compactedTime.Nanoseconds()), Unit: "ns"},
			{Name: "compacted/replayed", Value: float64(compactedReplay), Unit: "count"},
			{Name: "recovery_speedup", Value: speedup, Unit: "x"},
			{Name: "mutation_p50", Value: float64(p(0.50).Nanoseconds()), Unit: "ns"},
			{Name: "mutation_p99", Value: float64(p(0.99).Nanoseconds()), Unit: "ns"},
			{Name: "mutation_max", Value: float64(lat[len(lat)-1].Nanoseconds()), Unit: "ns"},
		},
	}, nil
}

// runSaturation drives an instrumented daemon to its knee and past it, in two
// phases, against a shared bounded prover pool and compaction-lag admission
// control — the two mechanisms that keep an overloaded odserve degrading
// predictably instead of collapsing.
//
// Phase 1 (latency ramp): closed-loop prove traffic at rising concurrency
// (1, 2, pool-capacity, 2x pool-capacity goroutines), every question a fresh
// refuted span reversal so each prove runs a real pattern search through the
// shared pool. Per-stage p50/p99 come from per-request wall clocks. The gate
// is knee_p99_inflation — p99 at pool-capacity concurrency over p99 at
// concurrency 1: with one bounded pool, queueing grows latency by roughly the
// concurrency ratio; an unbounded goroutine explosion or a pool leak blows
// far past it. pool_peak <= pool_capacity rides along as the deterministic
// form of the same claim.
//
// Phase 2 (load shedding): the "hot" shard's compactor is pinned via the
// store's stall hook while one-record WAL segments pile up; declares must
// start bouncing with 429 once the lag threshold is crossed, while prove
// traffic keeps answering 200 throughout. Resuming the compactor and
// snapshotting must re-admit declares — shedding is a state, not a latch.
func runSaturation(seed int64) (*benchResult, error) {
	const (
		poolCap        = 4
		chainsPerStage = 16
		chainAttrs     = 10 // per-chain universe: wide enough that searches fan out through the pool
		minSpan        = 5
		provesPerStage = 128
		backpressureAt = 4  // sealed-segment lag that trips admission control
		floodMax       = 64 // declare attempts against the pinned compactor
	)
	rng := rand.New(rand.NewSource(seed))
	stages := []int{1, 2, poolCap, 2 * poolCap}

	tmp, err := os.MkdirTemp("", "odbench-saturation-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Wired exactly like cmd/odserve: telemetry first, hooks into every
	// layer, collectors installed over the opened router.
	tel := server.NewTelemetry()
	pool := prover.NewPool(poolCap)
	rt, err := router.Open(router.Options{
		DataDir: tmp,
		Store: store.Options{
			Fsync:          false,
			SegmentRecords: 1, // every record seals a segment: lag == records
			SnapshotEvery:  4,
			Telemetry:      tel.StoreTelemetry(),
		},
		Catalog:              append([]catalog.Option{catalog.WithWorkers(poolCap)}, tel.CatalogOptions(pool)...),
		BackpressureSegments: backpressureAt,
		Telemetry:            tel.RouterTelemetry(),
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	tel.ObserveRouter(rt, pool)
	ts := httptest.NewServer(server.New(rt, server.WithTelemetry(tel)))
	defer ts.Close()
	client := ts.Client()

	post := func(path string, body map[string]any) (int, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		return resp.StatusCode, nil
	}

	// Per-stage schema: disjoint chains s<stage>_c<chain>_a0 ↦ … each under
	// its own context attribute s<stage>_c<chain>_zz (see underContext: the
	// context sorts last, so propagation cannot cut and the searches stay
	// exhaustive), and a question pool of distinct FD-form spans
	// [zz, a_lo] ↦ [zz, a_lo, a_hi] — each is implied through the chain but
	// only the pattern search can say so (closure membership cannot,
	// Theorem 13's FD detour), and implied verdicts have no counterexample
	// witness the negative closure could generalize, so every distinct
	// question pays a genuine search of 3^(span+2)/2 patterns — past the
	// fan-out budget from span 6 up, so most of them draw on the pool.
	attr := func(stage, c, i int) string { return fmt.Sprintf("s%d_c%d_a%d", stage, c, i) }
	zz := func(stage, c int) string { return fmt.Sprintf("s%d_c%d_zz", stage, c) }
	questions := make(map[int][]string)
	for si, conc := range stages {
		var decl []string
		for c := 0; c < chainsPerStage; c++ {
			for i := 0; i+1 < chainAttrs; i++ {
				decl = append(decl, fmt.Sprintf("[%s, %s] -> [%s, %s]", zz(si, c), attr(si, c, i), zz(si, c), attr(si, c, i+1)))
			}
			for lo := 0; lo < chainAttrs; lo++ {
				for hi := lo + minSpan; hi < chainAttrs; hi++ {
					questions[si] = append(questions[si],
						fmt.Sprintf("[%s, %s] -> [%s, %s, %s]", zz(si, c), attr(si, c, lo), zz(si, c), attr(si, c, lo), attr(si, c, hi)))
				}
			}
		}
		schema := fmt.Sprintf("stage%d", si)
		if code, err := post("/ods", map[string]any{"schema": schema, "statements": decl}); err != nil || code != 200 {
			if err == nil {
				err = fmt.Errorf("status %d", code)
			}
			return nil, fmt.Errorf("populate stage %d (conc %d): %w", si, conc, err)
		}
		rng.Shuffle(len(questions[si]), func(i, j int) {
			questions[si][i], questions[si][j] = questions[si][j], questions[si][i]
		})
		if len(questions[si]) < provesPerStage {
			return nil, fmt.Errorf("stage %d question pool too small: %d", si, len(questions[si]))
		}
	}

	prove := func(schema, stmt string) (time.Duration, error) {
		t0 := time.Now()
		code, err := post("/prove", map[string]any{"schema": schema, "statement": stmt})
		if err != nil {
			return 0, err
		}
		if code != 200 {
			return 0, fmt.Errorf("prove: status %d", code)
		}
		return time.Since(t0), nil
	}

	fmt.Printf("saturation experiment — shared pool capacity %d, %d fresh search questions/stage, backpressure at %d segments\n",
		poolCap, provesPerStage, backpressureAt)
	fmt.Printf("%12s %12s %12s %14s\n", "concurrency", "p50", "p99", "proves/sec")

	res := &benchResult{
		Experiment: "saturation",
		Params: map[string]any{
			"pool_capacity": poolCap, "stages": stages, "proves_per_stage": provesPerStage,
			"chain_attrs": chainAttrs, "chains_per_stage": chainsPerStage,
			"backpressure_segments": backpressureAt, "seed": seed,
		},
	}
	p99s := make(map[int]time.Duration)
	for si, conc := range stages {
		schema := fmt.Sprintf("stage%d", si)
		lat := make([]time.Duration, provesPerStage)
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, conc)
		t0 := time.Now()
		for g := 0; g < conc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= provesPerStage {
						return
					}
					d, err := prove(schema, questions[si][i])
					if err != nil {
						errs[g] = err
						return
					}
					lat[i] = d
				}
			}(g)
		}
		wg.Wait()
		total := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("stage conc=%d: %w", conc, err)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(q float64) time.Duration { return lat[min(int(q*float64(len(lat))), len(lat)-1)] }
		p99s[conc] = pct(0.99)
		rate := float64(provesPerStage) / total.Seconds()
		fmt.Printf("%12d %12v %12v %14.0f\n", conc, pct(0.50), pct(0.99), rate)
		res.Metrics = append(res.Metrics,
			metric{Name: fmt.Sprintf("conc=%d/p50", conc), Value: float64(pct(0.50).Nanoseconds()), Unit: "ns"},
			metric{Name: fmt.Sprintf("conc=%d/p99", conc), Value: float64(pct(0.99).Nanoseconds()), Unit: "ns"},
			metric{Name: fmt.Sprintf("conc=%d/proves_per_sec", conc), Value: rate, Unit: "1/s"},
		)
	}
	ps := pool.Stats()
	kneeInflation := float64(p99s[poolCap]) / float64(max(p99s[1], 1))
	satInflation := float64(p99s[2*poolCap]) / float64(max(p99s[1], 1))
	fmt.Printf("pool: capacity %d, peak %d, acquired %d, starved %d\n",
		ps.Capacity, ps.Peak, ps.Acquired, ps.Starved)
	fmt.Printf("p99 inflation: %.1fx at the knee (conc=%d), %.1fx saturated (conc=%d)\n",
		kneeInflation, poolCap, satInflation, 2*poolCap)
	if ps.Peak > int64(ps.Capacity) {
		return nil, fmt.Errorf("pool peak %d exceeded capacity %d", ps.Peak, ps.Capacity)
	}
	if ps.Peak == 0 {
		return nil, fmt.Errorf("no search of the ramp fanned out: the questions no longer load the pool, so its bound was not tested")
	}
	if kneeInflation > 16 {
		// A warning, not an error: CI evaluates the JSON, humans the text.
		fmt.Printf("WARNING: knee p99 inflation above the expected 16x bound\n")
	}

	// Phase 2: pin the hot shard's compactor and flood declares. The first
	// declare materializes the shard; every subsequent accepted declare seals
	// one segment, so admission control must trip within backpressureAt+1
	// accepts and shed the rest of the flood.
	if code, err := post("/ods", map[string]any{"schema": "hot", "statements": []string{"[h0] -> [k0]"}}); err != nil || code != 200 {
		if err == nil {
			err = fmt.Errorf("status %d", code)
		}
		return nil, fmt.Errorf("hot shard declare: %w", err)
	}
	resume := rt.ShardStore("hot").StallCompaction()
	accepted, rejected := 0, 0
	floodStop := make(chan struct{})
	var proveWG sync.WaitGroup
	var floodProveErr error
	var floodLat []time.Duration
	proveWG.Add(1)
	go func() {
		// Reads ride through the write flood untouched: re-asking stage
		// questions (negative-closure hits now) must keep answering 200.
		defer proveWG.Done()
		for i := 0; ; i++ {
			select {
			case <-floodStop:
				return
			default:
			}
			d, err := prove("stage0", questions[0][i%provesPerStage])
			if err != nil {
				floodProveErr = err
				return
			}
			floodLat = append(floodLat, d)
		}
	}()
	for i := 1; i <= floodMax; i++ {
		code, err := post("/ods", map[string]any{
			"schema": "hot", "statements": []string{fmt.Sprintf("[h%d] -> [k%d]", i, i)},
		})
		if err != nil {
			return nil, err
		}
		switch code {
		case 200:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			return nil, fmt.Errorf("flood declare %d: status %d", i, code)
		}
	}
	close(floodStop)
	proveWG.Wait()
	if floodProveErr != nil {
		return nil, fmt.Errorf("prove during flood: %w", floodProveErr)
	}
	sort.Slice(floodLat, func(i, j int) bool { return floodLat[i] < floodLat[j] })
	floodP99 := time.Duration(0)
	if len(floodLat) > 0 {
		floodP99 = floodLat[min(int(0.99*float64(len(floodLat))), len(floodLat)-1)]
	}

	// Recovery: un-pin, compact, and the shard must admit writes again.
	resume()
	if code, err := post("/snapshot", map[string]any{"schema": "hot"}); err != nil || code != 200 {
		if err == nil {
			err = fmt.Errorf("status %d", code)
		}
		return nil, fmt.Errorf("snapshot after resume: %w", err)
	}
	recovered := 0
	if code, err := post("/ods", map[string]any{"schema": "hot", "statements": []string{"[recov] -> [ered]"}}); err != nil {
		return nil, err
	} else if code == 200 {
		recovered = 1
	}

	fmt.Printf("load shedding: %d accepted, %d rejected (429) of %d declares against a pinned compactor\n",
		accepted, rejected, floodMax)
	fmt.Printf("proves during the flood: %d answered, p99 %v; shard re-admitted writes after compaction: %v\n",
		len(floodLat), floodP99, recovered == 1)
	if rejected == 0 {
		fmt.Printf("WARNING: no 429s — admission control never tripped\n")
	}

	// The registry must still serve a strictly parseable exposition after
	// the whole run — the bench doubles as an end-to-end scrape check.
	sresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := metrics.ParseText(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("post-run /metrics failed to parse: %w", err)
	}

	res.Metrics = append(res.Metrics,
		metric{Name: "knee_p99_inflation", Value: kneeInflation, Unit: "x"},
		metric{Name: "saturated_p99_inflation", Value: satInflation, Unit: "x"},
		metric{Name: "pool_capacity", Value: float64(ps.Capacity), Unit: "count"},
		metric{Name: "pool_peak", Value: float64(ps.Peak), Unit: "count"},
		metric{Name: "pool_acquired", Value: float64(ps.Acquired), Unit: "count"},
		metric{Name: "pool_starved", Value: float64(ps.Starved), Unit: "count"},
		metric{Name: "shed_accepted", Value: float64(accepted), Unit: "count"},
		metric{Name: "shed_rejected", Value: float64(rejected), Unit: "count"},
		metric{Name: "flood_proves", Value: float64(len(floodLat)), Unit: "count"},
		metric{Name: "flood_prove_p99", Value: float64(floodP99.Nanoseconds()), Unit: "ns"},
		metric{Name: "recovered", Value: float64(recovered), Unit: "count"},
		metric{Name: "metric_families", Value: float64(len(fams)), Unit: "count"},
	)
	return res, nil
}

// runDiscover prices the parallel set-based discovery pipeline against the
// honest sequential baseline on two instances: the generated TPC-DS-style
// date dimension (the workload the paper's prototype would mine its check
// constraints from) and a random relation. Three runs per instance: the
// sequential Discover, the pipeline at one worker, and the pipeline at full
// parallelism. The pipeline's pruning counters are scheduler-independent —
// identical across worker counts, which the bench asserts — so CI gates the
// data-check reduction ratio, while wall-clock speedup is reported for
// humans. The reduction comes from two levers the baseline lacks:
// refutation propagation through lexicographic prefixes (a refuted
// candidate poisons its lattice extensions without touching data) and the
// sorted-partition cache (one sort per left-hand context answers every
// right-hand candidate over it).
func runDiscover(seed int64) (*benchResult, error) {
	cfg := warehouse.DefaultConfig()
	cfg.Days = 365
	cfg.FactRows = 0 // discovery mines the dimension; no fact rows needed
	cfg.Seed = seed
	w, err := warehouse.Generate(cfg)
	if err != nil {
		return nil, err
	}
	whRel, err := w.DateDimRelation()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	genRel := core.RandRelation(rng, core.L("a", "b", "c", "d", "e", "f"), 4000, 6)

	parallelWorkers := runtime.GOMAXPROCS(0)
	if parallelWorkers < 4 {
		parallelWorkers = 4
	}
	workloads := []struct {
		name string
		rel  *core.Relation
		opts discover.Options
	}{
		{"warehouse", whRel, discover.Options{MaxLHS: 2, MaxRHS: 3}},
		{"generated", genRel, discover.Options{MaxLHS: 2, MaxRHS: 2}},
	}

	fmt.Printf("discover experiment — sequential baseline vs level-wise pipeline, %d workers (seed %d)\n",
		parallelWorkers, seed)
	res := &benchResult{
		Experiment: "discover",
		Params: map[string]any{
			"warehouse_days": cfg.Days, "warehouse_bounds": "lhs<=2,rhs<=3",
			"generated_rows": genRel.Len(), "generated_bounds": "lhs<=2,rhs<=2",
			"workers": parallelWorkers, "seed": seed,
		},
	}
	for _, wl := range workloads {
		t0 := time.Now()
		naive, err := discover.Discover(wl.rel, wl.opts)
		if err != nil {
			return nil, err
		}
		naiveTime := time.Since(t0)

		one, err := discover.Pipeline(context.Background(), wl.rel,
			discover.PipelineOptions{Options: wl.opts, Workers: 1})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		par, err := discover.Pipeline(context.Background(), wl.rel,
			discover.PipelineOptions{Options: wl.opts, Workers: parallelWorkers})
		if err != nil {
			return nil, err
		}
		parTime := time.Since(t1)
		if par.Stats != one.Stats {
			return nil, fmt.Errorf("discover %s: pipeline stats depend on the schedule:\n1 worker: %+v\n%d workers: %+v",
				wl.name, one.Stats, parallelWorkers, par.Stats)
		}

		st := par.Stats
		checkReduction := float64(naive.DataChecks) / float64(max(st.DataChecks, 1))
		rowsReduction := float64(naive.RowsScanned) / float64(max(int64(st.RowsScanned), 1))
		speedup := float64(naiveTime) / float64(max(parTime, 1))
		hitRate := float64(st.CacheHits) / float64(max(st.CacheHits+st.CacheMisses, 1))

		fmt.Printf("\n%s: %d rows x %d attrs, %d candidates\n",
			wl.name, wl.rel.Len(), len(wl.rel.Attrs()), naive.Candidates)
		fmt.Printf("%12s %14s %12s %14s %10s\n", "", "total", "checks", "rows scanned", "ODs")
		fmt.Printf("%12s %14v %12d %14d %10d\n", "naive", naiveTime, naive.DataChecks, naive.RowsScanned, len(naive.ODs))
		fmt.Printf("%12s %14v %12d %14d %10d\n", "pipeline", parTime, st.DataChecks, st.RowsScanned, len(par.ODs))
		fmt.Printf("reduction: %.1fx data checks, %.1fx rows scanned; speedup %.1fx wall clock\n",
			checkReduction, rowsReduction, speedup)
		fmt.Printf("pruning: %d closure, %d refutation; partition cache %.0f%% hits (%d/%d contexts sorted)\n",
			st.ClosurePruned, st.RefutationPruned, 100*hitRate, st.CacheMisses, st.CacheHits+st.CacheMisses)
		if wl.name == "warehouse" && checkReduction < 4 {
			// A warning, not an error: CI gates the JSON at a lower floor.
			fmt.Printf("WARNING: data-check reduction below the expected 4x floor\n")
		}

		res.Metrics = append(res.Metrics,
			metric{Name: wl.name + "/naive/total", Value: float64(naiveTime.Nanoseconds()), Unit: "ns"},
			metric{Name: wl.name + "/pipeline/total", Value: float64(parTime.Nanoseconds()), Unit: "ns"},
			metric{Name: wl.name + "/naive/data_checks", Value: float64(naive.DataChecks), Unit: "count"},
			metric{Name: wl.name + "/pipeline/data_checks", Value: float64(st.DataChecks), Unit: "count"},
			metric{Name: wl.name + "/naive/rows_scanned", Value: float64(naive.RowsScanned), Unit: "count"},
			metric{Name: wl.name + "/pipeline/rows_scanned", Value: float64(st.RowsScanned), Unit: "count"},
			metric{Name: wl.name + "/datacheck_reduction", Value: checkReduction, Unit: "x"},
			metric{Name: wl.name + "/rows_reduction", Value: rowsReduction, Unit: "x"},
			metric{Name: wl.name + "/speedup", Value: speedup, Unit: "x"},
			metric{Name: wl.name + "/cache_hit_rate", Value: hitRate, Unit: "ratio"},
			metric{Name: wl.name + "/accepted_ods", Value: float64(len(par.ODs)), Unit: "count"},
		)
	}
	return res, nil
}

// runCatalog is the repeated-query workload behind odserve: the same
// implication questions asked over and over against an unchanged constraint
// set. Cold pays the full decision procedure per question (a fresh prover
// each time, as one-shot library calls did); memoized answers from the
// catalog's verdict memo after the first miss.
func runCatalog() (*benchResult, error) {
	const (
		attrs   = 10
		repeats = 200
	)
	m, implied, refuted := proverInstance(attrs)
	// The FD-form query must run the pattern search (closure membership
	// cannot answer it), making it representative of the expensive path.
	fdForm := implied.FDForm()
	queries := []core.OD{fdForm, refuted}

	fmt.Printf("catalog memoization — %d-attr chain, %d repeats of %d distinct queries\n",
		attrs, repeats, len(queries))

	t0 := time.Now()
	for i := 0; i < repeats; i++ {
		for _, q := range queries {
			p := prover.New(m)
			if _, err := p.Implies(q); err != nil {
				return nil, err
			}
		}
	}
	cold := time.Since(t0)

	cat := catalog.New()
	cat.Add(m...)
	t1 := time.Now()
	for i := 0; i < repeats; i++ {
		for _, q := range queries {
			if _, err := cat.Implies(q); err != nil {
				return nil, err
			}
		}
	}
	memoized := time.Since(t1)

	n := float64(repeats * len(queries))
	speedup := float64(cold) / float64(memoized)
	st := cat.Stats()
	fmt.Printf("%12s %14s %14s\n", "", "total", "per query")
	fmt.Printf("%12s %14v %14v\n", "cold", cold, cold/time.Duration(n))
	fmt.Printf("%12s %14v %14v\n", "memoized", memoized, memoized/time.Duration(n))
	fmt.Printf("speedup: %.0fx (memo: %d hits, %d misses)\n", speedup, st.Memo.Hits, st.Memo.Misses)
	if speedup < 10 {
		// A warning, not an error: wall-clock ratios on loaded machines can
		// absorb scheduler stalls, and a measurement must not masquerade as
		// a correctness failure. The steady-state ratio is >100x.
		fmt.Printf("WARNING: speedup below the expected 10x floor\n")
	}

	return &benchResult{
		Experiment: "catalog",
		Params:     map[string]any{"attrs": attrs, "repeats": repeats, "queries": len(queries)},
		Metrics: []metric{
			{Name: "cold/total", Value: float64(cold.Nanoseconds()), Unit: "ns"},
			{Name: "memoized/total", Value: float64(memoized.Nanoseconds()), Unit: "ns"},
			{Name: "cold/per_query", Value: float64(cold.Nanoseconds()) / n, Unit: "ns"},
			{Name: "memoized/per_query", Value: float64(memoized.Nanoseconds()) / n, Unit: "ns"},
			{Name: "speedup", Value: speedup, Unit: "x"},
			{Name: "memo_hits", Value: float64(st.Memo.Hits), Unit: "count"},
			{Name: "memo_misses", Value: float64(st.Memo.Misses), Unit: "count"},
		},
	}, nil
}

// capacityGate models one server instance's capacity: at most one request
// in service at a time, each holding the slot for a fixed service time.
// Replication traffic (/segments*) bypasses the gate — the capacity being
// modeled is query service, and shipping bytes is not a query.
//
// The gate is what makes read scaling measurable on any machine. On a
// many-core host three real processes would show scaling, but on the
// single-core CI runner they merely time-slice one CPU and the experiment
// would measure the scheduler. With an explicit per-server capacity the
// measured quantity is the one the replication layer exists to raise:
// how much aggregate query capacity the client's replica fan-out reaches.
type capacityGate struct {
	h       http.Handler
	slot    chan struct{}
	service time.Duration
}

func newCapacityGate(h http.Handler, service time.Duration) *capacityGate {
	return &capacityGate{h: h, slot: make(chan struct{}, 1), service: service}
}

func (g *capacityGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/segments") {
		g.slot <- struct{}{}
		time.Sleep(g.service)
		defer func() { <-g.slot }()
	}
	g.h.ServeHTTP(w, r)
}

// runReplica measures segment-shipping read scaling: one leader and two
// followers tailing it over real HTTP segment fetches, each server instance
// behind a capacityGate (one request in service, fixed service time). The
// headline metric, read_scaling, is 2-follower aggregate prove throughput
// over leader-only throughput from the same client — the number the
// replication layer exists to raise (floor: 1.5x, gated in CI).
func runReplica(seed int64) (*benchResult, error) {
	const (
		chains      = 24
		chainLen    = 8
		poolSize    = 256
		goroutines  = 16
		provesPerG  = 400
		serviceTime = 500 * time.Microsecond
	)
	rng := rand.New(rand.NewSource(seed))

	tmp, err := os.MkdirTemp("", "odbench-replica-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	leaderRT, err := router.Open(router.Options{DataDir: filepath.Join(tmp, "leader")})
	if err != nil {
		return nil, err
	}
	defer leaderRT.Close()
	lts := httptest.NewServer(newCapacityGate(server.New(leaderRT), serviceTime))
	defer lts.Close()

	// Populate: disjoint transitive chains on the default shard.
	attr := func(c, i int) string { return fmt.Sprintf("c%d_a%d", c, i) }
	seedClient, err := odclient.New(lts.URL)
	if err != nil {
		return nil, err
	}
	var decl []string
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			decl = append(decl, fmt.Sprintf("[%s] -> [%s]", attr(c, i), attr(c, i+1)))
		}
	}
	if _, err := seedClient.Mutate(context.Background(), "", decl, nil); err != nil {
		seedClient.Close()
		return nil, fmt.Errorf("populate leader: %w", err)
	}
	seedClient.Close()

	// Two followers: real follower routers fed by real tailers over the
	// leader's /segments endpoints, served behind their own gates.
	var followerURLs []string
	for i := 0; i < 2; i++ {
		frt, err := router.Open(router.Options{
			DataDir:  filepath.Join(tmp, fmt.Sprintf("follower%d", i)),
			Follower: true,
		})
		if err != nil {
			return nil, err
		}
		defer frt.Close()
		tailer, err := replica.New(replica.Options{
			Leader:       lts.URL,
			Router:       frt,
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = tailer.Sync(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("follower %d catch-up: %w", i, err)
		}
		tailer.Start()
		defer tailer.Close()
		fts := httptest.NewServer(newCapacityGate(server.New(frt, server.WithLeader(lts.URL)), serviceTime))
		defer fts.Close()
		followerURLs = append(followerURLs, fts.URL)
	}

	// Statement pool: implied chain spans plus refuted reversals, shared by
	// both measurement phases so the workloads are identical.
	pool := make([]string, poolSize)
	for i := range pool {
		c := rng.Intn(chains)
		lo := rng.Intn(chainLen)
		hi := lo + 1 + rng.Intn(chainLen-lo)
		if i%4 == 3 {
			pool[i] = fmt.Sprintf("[%s] -> [%s]", attr(c, hi), attr(c, lo))
		} else {
			pool[i] = fmt.Sprintf("[%s] -> [%s]", attr(c, lo), attr(c, hi))
		}
	}
	workload := make([]string, goroutines*provesPerG)
	for i := range workload {
		workload[i] = pool[rng.Intn(len(pool))]
	}

	// measure drives the fixed workload through one client and reports
	// proves/sec. Coalescing stays off: every prove is a real server round
	// trip through a capacity gate, which is the capacity being compared.
	measure := func(opts ...odclient.Option) (float64, odclient.Stats, error) {
		c, err := odclient.New(lts.URL, append([]odclient.Option{odclient.WithCoalescing(false)}, opts...)...)
		if err != nil {
			return 0, odclient.Stats{}, err
		}
		defer c.Close()
		// Warm every server's prove memo before timing: twice around the
		// pool so round-robin replica routing touches each statement on
		// every server it can land on.
		for pass := 0; pass < 2; pass++ {
			for _, stmt := range pool {
				if _, err := c.Prove(context.Background(), "", stmt); err != nil {
					return 0, odclient.Stats{}, err
				}
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		t0 := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g * provesPerG; i < (g+1)*provesPerG; i++ {
					if _, err := c.Prove(context.Background(), "", workload[i]); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return 0, odclient.Stats{}, err
			}
		}
		return float64(len(workload)) / elapsed.Seconds(), c.Stats(), nil
	}

	leaderTput, _, err := measure()
	if err != nil {
		return nil, fmt.Errorf("leader-only phase: %w", err)
	}
	replicaTput, rstats, err := measure(odclient.WithReplicas(followerURLs[0], followerURLs[1]))
	if err != nil {
		return nil, fmt.Errorf("replica phase: %w", err)
	}
	if rstats.ReplicaReads > 0 && rstats.ReplicaFailovers*10 > rstats.ReplicaReads {
		return nil, fmt.Errorf("replica phase fell over to the leader %d/%d reads — followers are not serving",
			rstats.ReplicaFailovers, rstats.ReplicaReads)
	}
	scaling := replicaTput / leaderTput

	fmt.Printf("replica experiment — 1 leader + 2 followers, %v service time per server, %d ODs, %d proves/phase\n",
		serviceTime, chains*chainLen, len(workload))
	fmt.Printf("%-32s %12.0f proves/s\n", "leader only", leaderTput)
	fmt.Printf("%-32s %12.0f proves/s\n", "2 followers (aggregate)", replicaTput)
	fmt.Printf("%-32s %12.2fx\n", "read scaling", scaling)

	return &benchResult{
		Experiment: "replica",
		Params: map[string]any{
			"followers": 2, "service_time_us": serviceTime.Microseconds(),
			"per_server_concurrency": 1, "ods": chains * chainLen,
			"goroutines": goroutines, "proves": len(workload), "seed": seed,
		},
		Metrics: []metric{
			{Name: "leader_proves_per_sec", Value: leaderTput, Unit: "proves/s"},
			{Name: "replica_aggregate_proves_per_sec", Value: replicaTput, Unit: "proves/s"},
			{Name: "read_scaling", Value: scaling, Unit: "x"},
		},
	}, nil
}
