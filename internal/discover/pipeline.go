package discover

import (
	"context"
	"runtime"
	"sync"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/prover"
)

// PipelineOptions configures the parallel discovery pipeline.
type PipelineOptions struct {
	Options

	// Workers bounds the goroutines validating candidates against data;
	// zero selects GOMAXPROCS, and no value starts more than GOMAXPROCS:
	// the checks are CPU-bound, so more goroutines would only queue.
	Workers int

	// Pool, when non-nil, is shared with the pruning catalog's implication
	// searches — the same discipline every prover in the daemon follows, so
	// discovery never oversubscribes a machine that is also serving proves.
	// Only relations wider than maxTableAttrs prune through a catalog;
	// narrower ones ask the model table, which searches nothing.
	Pool *prover.Pool

	// OnFound, when non-nil, is called with each accepted OD as its lattice
	// level commits — the streaming hook. Calls arrive from the coordinating
	// goroutine, in deterministic (level, then key) order.
	OnFound func(od core.OD)
}

// PipelineStats counts the pipeline's work. All pruning counters are
// scheduler-independent: which candidates reach the data depends only on the
// previous levels' committed results, never on worker interleaving, so two
// runs over the same relation perform the identical data checks.
//
// RowsScanned, CacheHits and CacheMisses are logical counts, defined by what
// the algorithm asks for and not by how core's rank kernel carries it out: a
// context's first use is one miss and charges two passes over the relation
// (one to sort, one to mark ties), every data check charges one, and a
// context answered from the cache charges none — however many counting-sort
// passes or rank-view builds that took.
type PipelineStats struct {
	Candidates       uint64 `json:"candidates"`       // non-trivial candidates enumerated
	ClosurePruned    uint64 `json:"closurePruned"`    // implied by the accepted set's closure; hold by inference
	RefutationPruned uint64 `json:"refutationPruned"` // refuted by prefix propagation; fail by inference
	DataChecks       uint64 `json:"dataChecks"`       // candidates that reached the data
	RowsScanned      uint64 `json:"rowsScanned"`      // logical passes × rows: two per cache miss, one per data check
	CacheHits        uint64 `json:"cacheHits"`        // context requests answered from the cache (sorts avoided)
	CacheMisses      uint64 `json:"cacheMisses"`      // context requests that sorted: each context's first use
	Accepted         uint64 `json:"accepted"`         // ODs committed: holding and, unless KeepRedundant, not implied by earlier ones
	Levels           int    `json:"levels"`           // lattice levels traversed
}

// PipelineResult is the outcome of a pipeline run.
type PipelineResult struct {
	// Constants lists the attributes holding a single value — the accepted
	// level-1 ODs with empty left-hand sides.
	Constants core.List
	// ODs holds the accepted dependencies in acceptance order: level by
	// level, by key within a level. None is implied by the ODs before it,
	// and the set is complete for the enumerated space — it is the
	// sequential Discover's, OD for OD. Under KeepRedundant it is every
	// candidate that holds.
	ODs   []core.OD
	Stats PipelineStats
}

// lattice is the candidate space in dense-integer form. Every duplicate-free
// list over the schema up to the longer of the two side bounds is enumerated
// once and numbered by (length, then schema-position order), so the lists
// admissible on either side are a prefix of the id space and a candidate
// X ↦ Y is the pair (id of X, id of Y). Nothing in the pruning plane touches
// an attribute name: triviality is a prefix test on the lists, the two
// propagation parents are (X, parent[Y]) and (parent[X], Y), and the
// refutation state is one byte per candidate.
type lattice struct {
	lists  []core.List // id → list; id 0 is the empty list
	pos    [][]uint8   // id → the list as schema positions, the model table's index
	parent []int32     // id → id of the list minus its last attribute
	start  []int32     // lists of length ℓ are the ids start[ℓ] ≤ id < start[ℓ+1]

	maxLHS, maxRHS int   // side bounds, in attributes
	nRHS           int32 // ids below nRHS are right-hand sides; a candidate's slot is lhs·nRHS + rhs
	// refuted[slot] is the violation kind a candidate is known to fail by,
	// zero while it is not known to fail. It is written only between
	// levels, by the coordinating goroutine.
	refuted []core.ViolationKind
}

// newLattice enumerates the lists and sizes the refutation table for
// left-hand sides up to maxLHS and right-hand sides up to maxRHS attributes;
// Options.CheckSize bounds the table.
func newLattice(attrs core.List, maxLHS, maxRHS int) *lattice {
	// No duplicate-free list is longer than the schema.
	maxLHS, maxRHS = min(maxLHS, len(attrs)), min(maxRHS, len(attrs))
	la := &lattice{lists: []core.List{nil}, pos: [][]uint8{nil}, parent: []int32{0}, start: []int32{0, 1}, maxLHS: maxLHS, maxRHS: maxRHS}
	for length := 1; length <= max(maxLHS, maxRHS); length++ {
		for p := la.start[length-1]; p < la.start[length]; p++ {
			for i, a := range attrs {
				if !la.lists[p].Contains(a) {
					la.lists = append(la.lists, la.lists[p].Concat(core.List{a}))
					la.pos = append(la.pos, append(la.pos[p][:length-1:length-1], uint8(i)))
					la.parent = append(la.parent, p)
				}
			}
		}
		la.start = append(la.start, int32(len(la.lists)))
	}
	la.nRHS = la.start[maxRHS+1]
	la.refuted = make([]core.ViolationKind, la.start[maxLHS+1]*la.nRHS)
	return la
}

// contextGroup is the unit of parallel work: every candidate of one level
// sharing a left-hand context, answered over one cached sorted partition.
type contextGroup struct {
	lhs  int32
	rhss []int32
}

// groupOutcome is what a worker reports back for one context group.
type groupOutcome struct {
	holding []core.OD
	refuted []refutation
	pruned  uint64 // closure-pruned count
	checks  uint64
	rows    uint64
	err     error
}

// refutation records a candidate of the group found to fail on the data, with
// the violation kind that decides how it propagates: splits poison every RHS
// extension, swaps poison RHS and LHS extensions both.
type refutation struct {
	rhs  int32
	kind core.ViolationKind
}

// pruning is the accepted set in the form closure pruning asks it: the model
// table for schemas of at most maxTableAttrs attributes, a catalog for wider
// ones, and neither under KeepRedundant, which asks no question.
type pruning struct {
	table *modelTable
	cat   *catalog.Catalog
}

// Pipeline discovers the ODs of the instance with the level-wise parallel
// algorithm: candidates are generated lattice level by level; each level is
// pruned against the closure of everything accepted so far (asking the
// accepted set's model table — past maxTableAttrs attributes, a catalog —
// before ever touching data) and against refutations propagated from prefix
// candidates; the survivors are validated in parallel, grouped by left-hand
// context so each context sorts the relation once and answers all its
// candidates from the cached order. The ODs found to hold enter the pruning
// state once per level, between levels, in key order, each unless the ones
// before it imply it — the theory extends, nothing is rebuilt, and the
// accepted set is Discover's.
//
// Cancelling ctx aborts the run between candidates and returns the context's
// error; partial results are discarded.
func Pipeline(ctx context.Context, r *core.Relation, opts PipelineOptions) (*PipelineResult, error) {
	return pipeline(ctx, r, opts, len(r.Attrs()) <= maxTableAttrs)
}

// pipeline is Pipeline with the pruning path named by the caller, so tests can
// hold the two to the same run: the split is on schema width alone.
func pipeline(ctx context.Context, r *core.Relation, opts PipelineOptions, useTable bool) (*PipelineResult, error) {
	opts.defaults()
	attrs := r.Attrs()
	if err := opts.CheckSize(len(attrs)); err != nil {
		return nil, err
	}
	workers := workerCount(opts.Workers)

	var pr pruning
	switch {
	case opts.KeepRedundant:
	case useTable:
		pr.table = newModelTable(attrs)
	default:
		// The pruning catalog: accepted ODs go in via Apply, implication
		// questions come out of the tier chain (closure first, search last).
		// Search parallelism within one question stays at 1 — the pipeline's
		// parallelism is across candidates — but the searches draw any extra
		// goroutines they are granted from the shared pool.
		catOpts := []catalog.Option{
			catalog.WithMaxAttrs(len(attrs) + 1),
			catalog.WithWorkers(1),
		}
		if opts.Pool != nil {
			catOpts = append(catOpts,
				catalog.WithWorkers(workers),
				catalog.WithSearchPool(opts.Pool))
		}
		pr.cat = catalog.New(catOpts...)
	}

	res := &PipelineResult{}
	cache := core.NewSortCache(r)
	la := newLattice(attrs, opts.MaxLHS, opts.MaxRHS)

	maxLevel := opts.MaxLHS + opts.MaxRHS
	for level := 1; level <= maxLevel; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		groups := la.levelGroups(level, &res.Stats)
		res.Stats.Levels = level
		if len(groups) == 0 {
			continue
		}

		outcomes := runGroups(ctx, groups, workers, func(g *contextGroup) groupOutcome {
			return validateGroup(ctx, r, pr, cache, la, g)
		})

		// Commit the level: refutations extend the propagation table, and
		// the ODs that hold enter the pruning state and the stream in key
		// order — Discover's — each unless those committed before imply it.
		// An implied OD would clear no model and extend no closure, so
		// dropping it changes no later verdict.
		var holding []core.OD
		for i, out := range outcomes {
			if out.err != nil {
				return nil, out.err
			}
			res.Stats.ClosurePruned += out.pruned
			res.Stats.DataChecks += out.checks
			res.Stats.RowsScanned += out.rows
			holding = append(holding, out.holding...)
			for _, rf := range out.refuted {
				la.refuted[groups[i].lhs*la.nRHS+rf.rhs] = rf.kind
			}
		}
		core.SortODs(holding)
		for _, od := range holding {
			switch {
			case pr.table != nil:
				if pr.table.implies(od) {
					continue
				}
				pr.table.accept(od)
			case pr.cat != nil:
				implied, err := pr.cat.ImpliesCtx(ctx, od)
				if err != nil {
					return nil, err
				}
				if implied {
					continue
				}
				pr.cat.Apply([]catalog.Mutation{{ODs: []core.OD{od}}})
			}
			res.ODs = append(res.ODs, od)
			res.Stats.Accepted++
			if opts.OnFound != nil {
				opts.OnFound(od)
			}
		}
	}

	_, hits, misses := cache.Stats()
	res.Stats.CacheHits, res.Stats.CacheMisses = hits, misses
	// Each cache miss paid one sort pass and one tie pass; hits paid nothing.
	res.Stats.RowsScanned += 2 * misses * uint64(r.Len())
	res.Constants = constantsOf(res.ODs)
	return res, nil
}

// levelGroups enumerates the level's non-trivial candidates — every LHS of
// length i paired with every RHS of length level-i ≥ 1 — applies the
// refutation-propagation prune (recording the propagated refutations so the
// next level can chain on them), and groups the survivors by left-hand
// context. Pruning here needs no data, no locks and no strings: the
// refutation table is only written between levels.
//
// The propagation rules are the set-based lattice prunes, sound by the
// prefix semantics of lexicographic order:
//
//   - X ↦ Y refuted (any kind) refutes X ↦ YW: a pair ordered by X but
//     misordered on Y stays misordered on any extension of Y.
//   - X ↦ Y refuted by a swap refutes XW ↦ Y: the swap pair is strictly
//     ordered by X, so it stays strictly ordered by XW.
//
// Splits do not propagate to LHS extensions — the violating pair ties on X
// and the extension may break the tie either way.
func (la *lattice) levelGroups(level int, stats *PipelineStats) []*contextGroup {
	var groups []*contextGroup
	for lhsLen := max(0, level-la.maxRHS); lhsLen <= min(level-1, la.maxLHS); lhsLen++ {
		rhsLen := level - lhsLen
		for lhs := la.start[lhsLen]; lhs < la.start[lhsLen+1]; lhs++ {
			var g *contextGroup
			for rhs := la.start[rhsLen]; rhs < la.start[rhsLen+1]; rhs++ {
				// Both lists are duplicate-free, so the OD is trivial
				// exactly when Y is a prefix of X.
				if la.lists[lhs].HasPrefix(la.lists[rhs]) {
					continue
				}
				stats.Candidates++
				if kind := la.propagated(lhs, rhs); kind != 0 {
					stats.RefutationPruned++
					la.refuted[lhs*la.nRHS+rhs] = kind
					continue
				}
				if g == nil {
					g = &contextGroup{lhs: lhs}
					groups = append(groups, g)
				}
				g.rhss = append(g.rhss, rhs)
			}
		}
	}
	return groups
}

// propagated returns the violation kind a candidate inherits from a refuted
// prefix candidate, or zero when neither immediate prefix refutes it.
func (la *lattice) propagated(lhs, rhs int32) core.ViolationKind {
	// An LHS-propagated swap stays a swap; prefer it when both prefixes
	// prune, since swaps poison more of the lattice above. The empty LHS has
	// no prefix (it is its own parent, and the slot is the candidate's own).
	if la.refuted[la.parent[lhs]*la.nRHS+rhs] == core.Swap {
		return core.Swap
	}
	// A one-attribute RHS has the empty prefix, whose slot no candidate ever
	// writes: X ↦ [] is trivial.
	return la.refuted[lhs*la.nRHS+la.parent[rhs]]
}

// validateGroup answers one context group: closure-prune each candidate
// against the accepted set, then check the survivors against the data over
// the context's cached sorted partition.
func validateGroup(ctx context.Context, r *core.Relation, pr pruning,
	cache *core.SortCache, la *lattice, g *contextGroup) groupOutcome {
	var out groupOutcome
	var part *core.SortedPartition
	lhs := la.lists[g.lhs]
	var le []uint64 // the models the group's left-hand side orders
	if pr.table != nil {
		le = pr.table.under(la.pos[g.lhs])
	}
	for _, rhs := range g.rhss {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		od := core.NewOD(lhs, la.lists[rhs])
		implied := false
		switch {
		case pr.table != nil:
			implied = pr.table.orders(le, la.pos[rhs])
		case pr.cat != nil:
			var err error
			if implied, err = pr.cat.ImpliesCtx(ctx, od); err != nil {
				out.err = err
				return out
			}
		}
		if implied {
			out.pruned++
			continue
		}
		if part == nil {
			p, err := cache.Get(lhs)
			if err != nil {
				out.err = err
				return out
			}
			part = p
		}
		out.checks++
		out.rows += uint64(r.Len())
		holds, v, err := r.SatisfiesWith(od, part)
		if err != nil {
			out.err = err
			return out
		}
		if holds {
			out.holding = append(out.holding, od)
		} else {
			out.refuted = append(out.refuted, refutation{rhs: rhs, kind: v.Kind})
		}
	}
	return out
}

// workerCount is the validation parallelism a run asks for, as Workers
// documents it: GOMAXPROCS unless fewer are asked for.
func workerCount(asked int) int {
	procs := runtime.GOMAXPROCS(0)
	if asked <= 0 {
		return procs
	}
	return min(asked, procs)
}

// runGroups fans the groups out over a bounded worker set and collects every
// outcome. Work is pulled from a channel so large levels load-balance across
// however many workers the caller allows.
func runGroups(ctx context.Context, groups []*contextGroup, workers int,
	do func(*contextGroup) groupOutcome) []groupOutcome {
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		out := make([]groupOutcome, len(groups))
		for i, g := range groups {
			out[i] = do(g)
		}
		return out
	}
	type job struct {
		i int
		g *contextGroup
	}
	jobs := make(chan job)
	out := make([]groupOutcome, len(groups))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i] = do(j.g)
			}
		}()
	}
	for i, g := range groups {
		jobs <- job{i, g}
	}
	close(jobs)
	wg.Wait()
	return out
}
