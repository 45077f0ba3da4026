package catalog

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
)

// Verdict tier names, as reported in ProveResult.Tier, the tier-latency
// observer, and the odserve_verdict_tier_seconds metric labels. Order of
// increasing cost: trivial, closure, negative, memo, search.
const (
	TierTrivial  = "trivial"
	TierClosure  = "closure"
	TierNegative = "negative"
	TierMemo     = "memo"
	TierSearch   = "search"
)

// Catalog is a concurrent OD constraint catalog that remembers the verdicts
// its searches reach.
type Catalog struct {
	mu       sync.RWMutex
	declared *odSet
	cur      *generation // what every read works against; replaced, never modified
	maxAttrs int
	workers  int
	pool     *prover.Pool
	observe  func(tier string, seconds float64)
	verdicts *verdicts

	// tiers counts verdict fast-path hits; counters aggregates search
	// effort. Both live on the catalog, not the per-generation prover, so
	// they survive rebuilds and report cumulative work on /healthz.
	tiers    tierCounters
	counters prover.Counters
}

// tierCounters tallies verdict tier hits atomically.
type tierCounters struct {
	trivial, closure, negative, memo, search atomic.Uint64
}

// TierStats is a point-in-time copy of the verdict tier hit counters.
type TierStats struct {
	Trivial  uint64 `json:"trivial"`
	Closure  uint64 `json:"closure"`
	Negative uint64 `json:"negative"`
	Memo     uint64 `json:"memo"`
	Search   uint64 `json:"search"`
}

// ProverStats summarizes search configuration and cumulative effort.
type ProverStats struct {
	Workers   uint64 `json:"workers"`
	Nodes     uint64 `json:"nodes"`
	Searches  uint64 `json:"searches"`
	Cancelled uint64 `json:"cancelled"`
	Widenings uint64 `json:"widenings"`
}

// Option configures a Catalog.
type Option func(*Catalog)

// WithMemoCapacity bounds the verdict store to n searched verdicts, implied
// and refuted together; n <= 0 selects DefaultMemoCapacity.
func WithMemoCapacity(n int) Option {
	return func(c *Catalog) { c.verdicts = newVerdicts(n) }
}

// WithMaxAttrs overrides the prover's attribute-count guard for questions
// asked through the catalog.
func WithMaxAttrs(n int) Option {
	return func(c *Catalog) { c.maxAttrs = n }
}

// WithWorkers sets the prover's search parallelism for questions asked
// through the catalog. n <= 1 keeps searches sequential.
func WithWorkers(n int) Option {
	return func(c *Catalog) { c.workers = n }
}

// WithSearchPool shares one bounded worker pool across every prover this
// catalog builds (one per generation) — and, when many catalogs receive the
// same pool, across all of them. WithWorkers still sets how many workers a
// single search WANTS; the pool decides how many extra goroutines it GETS,
// so concurrent heavy proves split the machine instead of each claiming all
// of it. Nil keeps per-search fan-out unbounded.
func WithSearchPool(p *prover.Pool) Option {
	return func(c *Catalog) { c.pool = p }
}

// WithTierLatency installs an observer called once per implication question
// with the verdict tier that answered it (TierTrivial…TierSearch) and the
// wall-clock seconds the answer took. The observer runs on the asking
// goroutine and must be cheap and concurrency-safe — odserve hands it a
// histogram-vec observe. Nil (the default) skips the timing entirely.
func WithTierLatency(fn func(tier string, seconds float64)) Option {
	return func(c *Catalog) { c.observe = fn }
}

// New creates an empty catalog. Searches default to one worker per
// available CPU; override with WithWorkers.
func New(opts ...Option) *Catalog {
	c := &Catalog{
		declared: newODSet(),
		maxAttrs: prover.DefaultMaxAttrs,
		workers:  runtime.GOMAXPROCS(0),
		verdicts: newVerdicts(DefaultMemoCapacity),
	}
	for _, o := range opts {
		o(c)
	}
	c.rebuildLocked(0, 0)
	return c
}

// Add declares ODs, returning how many were new. Declarations are
// canonicalized (per-side normalization) and deduplicated; trivial ODs are
// dropped silently since they constrain nothing. When anything was added
// the generation advances, stored refutations are revalidated against the
// additions (stored implied verdicts stand: implication is monotone) and the
// transitive closure is extended incrementally: existing derived ODs are
// reused as passive composition partners and only the new edges work the
// fixpoint.
func (c *Catalog) Add(ods ...core.OD) int {
	added, _, _ := c.Apply([]Mutation{{ODs: ods}})
	return added
}

// Remove withdraws declared ODs (canonicalized before lookup), returning how
// many were present. Derived closure ODs cannot be removed directly — they
// vanish when the declarations entailing them do, and so does every stored
// implied verdict (stored refutations stand: their witnesses satisfied the
// larger set). Closure maintenance is incremental: only derived ODs whose
// source backward-reaches a removed premise in the inflated-edge graph are
// revisited (see shrinkClosure); the rest of the closure is reused verbatim
// instead of recomputed.
func (c *Catalog) Remove(ods ...core.OD) int {
	_, removed, _ := c.Apply([]Mutation{{Remove: true, ODs: ods}})
	return removed
}

// Mutation is one step of a batch application: declare or withdraw ODs.
type Mutation struct {
	Remove bool
	ODs    []core.OD
}

// Apply runs a sequence of declare/remove steps as one batch: one lock
// acquisition, one generation bump when the declared set changed, and one
// closure refresh — the write path of a shard with no log. Steps apply in
// order, so a batch may declare and later withdraw the same OD. It returns
// the effective added and removed counts plus post-batch stats.
func (c *Catalog) Apply(muts []Mutation) (added, removed int, st Stats) {
	added, removed, _, _, st = c.apply([][]Mutation{muts})
	return added, removed, st
}

// Effect is what one batch changed: how many ODs it added and removed.
type Effect struct{ Added, Removed int }

// apply runs batches no log numbers: the applied seq stays where it is.
func (c *Catalog) apply(batches [][]Mutation) (added, removed int, netAdded, netRemoved []core.OD, st Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	added, removed, netAdded, netRemoved = c.applyLocked(c.cur.seq, batches, nil)
	return added, removed, netAdded, netRemoved, c.statsLocked()
}

// applyLocked is the one mutation loop. Batches apply in order, a non-nil
// effects receives each one's counts, and the generation bumps once for
// each batch that changed the declared set — the only place that rule is
// written. The verdict store and the closure then move once, for the net
// effect of all batches: netAdded holds ODs present after that were absent
// before, netRemoved the reverse, and an OD declared and withdrawn in
// between appears in neither. The net lists are what incremental
// maintenance keys on: the closure extends or shrinks from them, and the
// verdict store revalidates its witnesses against exactly the net-added ODs
// and drops its implied verdicts exactly when something was net removed.
// The result is published with seq as its applied seq. Caller holds c.mu.
func (c *Catalog) applyLocked(seq uint64, batches [][]Mutation, effects []Effect) (added, removed int, netAdded, netRemoved []core.OD) {
	// delta tracks each touched OD's net membership change: +1 present now
	// but not before, -1 the reverse, 0 back where it started. Effective
	// ops on one OD strictly alternate, so delta stays in {-1, 0, +1}.
	type effect struct {
		od    core.OD
		delta int
	}
	net := make(map[string]*effect)
	touch := func(od core.OD, d int) {
		key := od.Key()
		e, ok := net[key]
		if !ok {
			e = &effect{od: od}
			net[key] = e
		}
		e.delta += d
	}
	gen := c.cur.gen
	for i, muts := range batches {
		a, r := added, removed
		for _, m := range muts {
			for _, od := range m.ODs {
				od = canon(od)
				if m.Remove {
					if c.declared.remove(od) {
						removed++
						touch(od, -1)
					}
				} else if !od.Trivial() && c.declared.add(od) {
					added++
					touch(od, +1)
				}
			}
		}
		if added+removed > a+r {
			gen++
		}
		if effects != nil {
			effects[i] = Effect{Added: added - a, Removed: removed - r}
		}
	}
	for _, e := range net {
		switch {
		case e.delta > 0:
			netAdded = append(netAdded, e.od)
		case e.delta < 0:
			netRemoved = append(netRemoved, e.od)
		}
	}
	switch {
	case gen > c.cur.gen:
		c.verdicts.advance(gen, netAdded, len(netRemoved) > 0)
		switch {
		case removed == 0:
			c.refreshLocked(seq, gen, extendClosure(c.cur.closure, netAdded))
		case added == 0:
			c.refreshLocked(seq, gen, shrinkClosure(c.cur.closure, netRemoved, c.declared.unordered()))
		default:
			// Mixed batches interleave adds and removes; one full recompute
			// is still a single rebuild for the whole sequence.
			c.rebuildLocked(seq, gen)
		}
	case seq != c.cur.seq:
		// Only the applied seq moved. The copy's rewrite constraints ask the
		// original as their Oracle, which answers alike: no question reads seq.
		g := *c.cur
		g.seq = seq
		c.cur = &g
	}
	return added, removed, netAdded, netRemoved
}

// rebuildLocked recomputes the closure from scratch and publishes it as
// generation gen at applied seq.
func (c *Catalog) rebuildLocked(seq, gen uint64) {
	c.refreshLocked(seq, gen, transitiveClosure(c.declared.unordered()))
}

// refreshLocked builds and publishes generation gen, at applied seq, from the
// declared set and its (already maintained) closure: the declared list, the
// prover and the rewrite constraints that ask it through the tier chain. The
// caller has already advanced the verdict store to gen. Sorting the declared
// set is the only ordering a mutation pays for — it is what Declared lists
// and what fixes the prover's compile order; the closure is published as the
// unordered set it is. The shared tier/effort counters ride along so
// statistics survive the rebuild.
func (c *Catalog) refreshLocked(seq, gen uint64, closure *odSet) {
	declared := c.declared.slice()
	g := &generation{
		seq:      seq,
		gen:      gen,
		declared: declared,
		closure:  closure,
		prov: prover.New(declared,
			prover.WithMaxAttrs(c.maxAttrs),
			prover.WithWorkers(c.workers),
			prover.WithPool(c.pool),
			prover.WithCounters(&c.counters)),
		verdicts: c.verdicts,
		tiers:    &c.tiers,
		observe:  c.observe,
	}
	g.cons = rewrite.NewConstraints(nil, declared).UseOracle(g)
	c.cur = g
}

// generation is the catalog's whole read state at one generation number and
// applied seq. Nothing in it is modified once published — a mutation
// publishes a fresh value instead — so a reader copies the pointer under a
// brief shared lock and then proves and rewrites with no lock held. verdicts
// and tiers are handles on state shared across generations, with their own
// synchronization; the store answers and accepts only the generation it was
// last advanced to, so a generation that has been superseded searches and
// files nothing.
type generation struct {
	seq      uint64 // last applied WAL record; 0 on a catalog no log feeds
	gen      uint64
	declared []core.OD // canonical sorted order
	closure  *odSet    // inflated transitive closure of declared (non-trivial ODs only); listers deflate it
	prov     *prover.Prover
	cons     *rewrite.Constraints // over declared; its Oracle is this generation or one with its number
	verdicts *verdicts
	tiers    *tierCounters
	observe  func(tier string, seconds float64)
}

// snapshot returns the current generation; the shared lock orders the read
// after the write that published it.
func (c *Catalog) snapshot() *generation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cur
}

// OrdersBy implements rewrite.Oracle, which is how a reduction's questions
// descend the same tier chain, under the same counters, as a prove's.
func (g *generation) OrdersBy(ctx context.Context, x, y core.List) (bool, error) {
	ok, _, _, err := g.impliesWitness(ctx, core.NewOD(x, y))
	return ok, err
}

// prove decides a conjunction of ODs: it ends at the first refutation or
// error, and Tier is the most expensive tier it touched on the way.
func (g *generation) prove(ctx context.Context, ods []core.OD) ProveResult {
	res := ProveResult{Implied: true}
	for _, od := range ods {
		ok, w, tier, err := g.impliesWitness(ctx, od)
		if tierRank(tier) > tierRank(res.Tier) {
			res.Tier = tier
		}
		if err != nil || !ok {
			return ProveResult{Witness: w, Tier: res.Tier, Err: err}
		}
	}
	return res
}

// impliesWitness decides one question against the generation and reports
// which verdict tier answered it. With a tier-latency observer installed,
// the decision is timed and reported under that tier — cancelled searches
// included, since their latency is exactly what saturation diagnostics need.
func (g *generation) impliesWitness(ctx context.Context, od core.OD) (bool, *core.Pattern, string, error) {
	if g.observe == nil {
		return g.decide(ctx, od)
	}
	start := time.Now()
	ok, w, tier, err := g.decide(ctx, od)
	g.observe(tier, time.Since(start).Seconds())
	return ok, w, tier, err
}

// decide descends the verdict tier chain, cheapest first: triviality,
// positive transitive-closure membership, one lookup in the verdict store (a
// stored refutation answers as TierNegative with its witness, a stored
// implied verdict as TierMemo), and finally the prover's pattern search,
// whose verdict is filed in the store. Each tier taken bumps its hit counter.
func (g *generation) decide(ctx context.Context, od core.OD) (bool, *core.Pattern, string, error) {
	od = canonView(od)
	if od.Trivial() {
		g.tiers.trivial.Add(1)
		return true, nil, TierTrivial, nil
	}
	if g.closure.has(od) {
		g.tiers.closure.Add(1)
		return true, nil, TierClosure, nil
	}
	key := od.Key()
	if implied, w, ok := g.verdicts.get(key, g.gen); ok {
		if implied {
			g.tiers.memo.Add(1)
			return true, nil, TierMemo, nil
		}
		g.tiers.negative.Add(1)
		return false, w, TierNegative, nil
	}
	g.tiers.search.Add(1)
	v, err := g.prov.DecideCtx(ctx, od)
	if err != nil {
		return false, nil, TierSearch, err
	}
	g.verdicts.put(key, od, v, g.gen)
	return v.Implied, v.Witness, TierSearch, nil
}

// tierRank orders tiers by cost so a conjunction can report its most
// expensive constituent.
func tierRank(tier string) int {
	switch tier {
	case "":
		return -1
	case TierTrivial:
		return 0
	case TierClosure:
		return 1
	case TierNegative:
		return 2
	case TierMemo:
		return 3
	default:
		return 4
	}
}

// Declared returns the declared ODs in canonical sorted order.
func (c *Catalog) Declared() []core.OD {
	return append([]core.OD(nil), c.snapshot().declared...)
}

// Snapshot returns the deflated transitive closure in canonical sorted
// order: every declared OD plus everything derivable by inflation and
// transitivity, compacted back so no listed OD is a prefix-weakening of a
// sibling. The deflation runs on each call, outside the catalog lock, over
// the generation's immutable closure — the lister pays for it, not every
// mutation.
func (c *Catalog) Snapshot() []core.OD {
	return Deflate(c.snapshot().closure.unordered())
}

// Has reports whether od (canonicalized) is trivial or a member of the
// maintained closure. It is a sound but incomplete implication check — a
// constant-time filter in front of Implies.
func (c *Catalog) Has(od core.OD) bool {
	od = canonView(od)
	return od.Trivial() || c.snapshot().closure.has(od)
}

// Generation returns the mutation counter. Two reads returning the same
// generation bracket a window with no effective mutation.
func (c *Catalog) Generation() uint64 { return c.snapshot().gen }

// Listing is a mutually consistent snapshot of the catalog's constraints:
// declared set, deflated closure and the generation both belong to.
type Listing struct {
	Generation uint64
	Declared   []core.OD
	Closure    []core.OD
}

// Listing returns declared ODs, closure and generation of one catalog state
// — separate Declared/Snapshot/Generation calls can each observe a different
// one under concurrent mutation. The closure is deflated on each call, as in
// Snapshot.
func (c *Catalog) Listing() Listing {
	g := c.snapshot()
	return Listing{
		Generation: g.gen,
		Declared:   append([]core.OD(nil), g.declared...),
		Closure:    Deflate(g.closure.unordered()),
	}
}

// Stats is a point-in-time summary of the catalog.
type Stats struct {
	Declared   int         `json:"declared"`
	Closure    int         `json:"closure"`
	Negative   int         `json:"negativeClosure"`
	Generation uint64      `json:"generation"`
	Memo       MemoStats   `json:"memo"`
	Tiers      TierStats   `json:"tiers"`
	Prover     ProverStats `json:"prover"`
}

// Stats returns current counters.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.statsLocked()
}

func (c *Catalog) statsLocked() Stats {
	eff := c.counters.Snapshot()
	memo, refuted := c.verdicts.stats()
	tiers := TierStats{
		Trivial:  c.tiers.trivial.Load(),
		Closure:  c.tiers.closure.Load(),
		Negative: c.tiers.negative.Load(),
		Memo:     c.tiers.memo.Load(),
		Search:   c.tiers.search.Load(),
	}
	memo.Hits, memo.Misses = tiers.Negative+tiers.Memo, tiers.Search
	return Stats{
		Declared:   c.declared.len(),
		Closure:    c.cur.closure.len(),
		Negative:   refuted,
		Generation: c.cur.gen,
		Memo:       memo,
		Tiers:      tiers,
		Prover: ProverStats{
			// The prover clamps the configured value into its valid range;
			// report the effective parallelism, not the raw option.
			Workers:   uint64(c.cur.prov.Workers()),
			Nodes:     eff.Nodes,
			Searches:  eff.Searches,
			Cancelled: eff.Cancelled,
			Widenings: eff.Widenings,
		},
	}
}

// Implies reports whether the declared ODs logically imply od.
func (c *Catalog) Implies(od core.OD) (bool, error) {
	ok, _, err := c.ImpliesWitness(od)
	return ok, err
}

// ImpliesCtx is Implies honoring cancellation.
func (c *Catalog) ImpliesCtx(ctx context.Context, od core.OD) (bool, error) {
	ok, _, err := c.ImpliesWitnessCtx(ctx, od)
	return ok, err
}

// ImpliesWitness is Implies plus a two-row counterexample on refutation.
// The witness may be served from the verdict store and shared with other
// callers; it must be treated as read-only.
func (c *Catalog) ImpliesWitness(od core.OD) (bool, *core.Pattern, error) {
	return c.ImpliesWitnessCtx(context.Background(), od)
}

// ImpliesWitnessCtx is ImpliesWitness honoring cancellation: a cancelled
// context aborts the pattern search and surfaces the context's error.
func (c *Catalog) ImpliesWitnessCtx(ctx context.Context, od core.OD) (bool, *core.Pattern, error) {
	ok, w, _, err := c.snapshot().impliesWitness(ctx, od)
	return ok, w, err
}

// ImpliesAllWitness decides a conjunction of ODs atomically: every question
// is answered against the same constraint snapshot, whose generation is
// returned alongside. On the first refutation it returns that OD's
// counterexample. This is the primitive behind Equivalent, OrderCompatible
// and multi-OD statements like "X <-> Y" — deciding the two directions with
// separate Implies calls could interleave with a mutation and report a
// conjunction no single generation of the catalog ever implied.
func (c *Catalog) ImpliesAllWitness(ods []core.OD) (bool, *core.Pattern, uint64, error) {
	return c.ImpliesAllWitnessCtx(context.Background(), ods)
}

// ImpliesAllWitnessCtx is ImpliesAllWitness honoring cancellation.
func (c *Catalog) ImpliesAllWitnessCtx(ctx context.Context, ods []core.OD) (bool, *core.Pattern, uint64, error) {
	g := c.snapshot()
	res := g.prove(ctx, ods)
	return res.Implied, res.Witness, g.gen, res.Err
}

// ProveResult is one verdict of a batch prove: implied, refuted with a
// witness, or individually failed (attribute-limit errors poison only their
// own statement, not the batch). Tier names the most expensive verdict tier
// the statement's conjunction touched (TierTrivial…TierSearch) — the label
// access logs and latency diagnostics key on.
type ProveResult struct {
	Implied bool
	Witness *core.Pattern
	Tier    string
	Err     error
}

// ProveEachCtx decides many statements — each a conjunction of ODs, as
// produced by core.ParseStatement — against a single catalog snapshot: one
// read-lock acquisition and one constraint generation for the whole batch,
// which is what lets /prove/batch amortize snapshot and transport costs
// across statements while staying atomic. Once the context dies, the
// in-flight search aborts and every remaining statement reports the
// context's error — the batch drains fast instead of burning search nodes
// for a client that has hung up.
func (c *Catalog) ProveEachCtx(ctx context.Context, qs [][]core.OD) ([]ProveResult, uint64) {
	g := c.snapshot()
	out := make([]ProveResult, len(qs))
	for i, ods := range qs {
		out[i] = g.prove(ctx, ods)
	}
	return out, g.gen
}

// ImpliesAll reports whether every OD of the slice is implied, atomically.
func (c *Catalog) ImpliesAll(ods []core.OD) (bool, error) {
	ok, _, _, err := c.ImpliesAllWitness(ods)
	return ok, err
}

// Equivalent reports whether the catalog implies x ↔ y. Both directions are
// decided against the same constraint set.
func (c *Catalog) Equivalent(x, y core.List) (bool, error) {
	return c.ImpliesAll(core.Equivalence(x, y))
}

// OrderCompatible reports whether the catalog implies x ~ y.
func (c *Catalog) OrderCompatible(x, y core.List) (bool, error) {
	return c.ImpliesAll(core.OrderCompat(x, y))
}

// ReduceOrder minimizes an ORDER BY list with ReduceOrder⁺ under the
// catalog's constraints, sharing the verdict store with Implies.
func (c *Catalog) ReduceOrder(order core.List) (rewrite.Result, error) {
	res, _, err := c.ReduceOrderStampedCtx(context.Background(), order)
	return res, err
}

// ReduceOrderStampedCtx is ReduceOrder plus the generation of the constraint
// set the reduction ran against, honoring cancellation of the implication
// searches the reduction runs.
func (c *Catalog) ReduceOrderStampedCtx(ctx context.Context, order core.List) (rewrite.Result, uint64, error) {
	g := c.snapshot()
	res, err := rewrite.ReduceOrderCtx(ctx, order, g.cons)
	return res, g.gen, err
}

// ReduceGroupByStamped minimizes a GROUP BY list under the catalog's
// constraints — each elimination an FD-form question down the tier chain —
// and returns the generation of the constraint set the reduction ran
// against.
func (c *Catalog) ReduceGroupByStamped(ctx context.Context, group core.List) (rewrite.Result, uint64, error) {
	g := c.snapshot()
	res, err := rewrite.ReduceGroupBy(ctx, group, g.cons)
	return res, g.gen, err
}

// Covers reports whether a stream ordered by have satisfies ORDER BY want
// under the catalog's constraints.
func (c *Catalog) Covers(have, want core.List) (bool, error) {
	return rewrite.Covers(have, want, c.snapshot().cons)
}
