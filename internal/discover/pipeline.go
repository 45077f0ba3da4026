package discover

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// Kernel counts the physical work core's kernels did for the run —
	// rows refined, sorted and scanned, rank views built — which, unlike
	// Stats, a kernel change may move. It is not part of the wire answer.
	Kernel core.KernelStats
}

// lattice is the candidate space in dense-integer form. Every duplicate-free
// list over the schema up to some length is enumerated once and numbered by
// (length, then schema-position order), so the lists admissible on either
// side are a prefix of the id space and a candidate X ↦ Y is the pair (id of
// X, id of Y). A lattice holds positions only — nothing in the pruning plane
// touches an attribute name: triviality is a prefix test on the lists, the
// two propagation parents are (X, parent[Y]) and (parent[X], Y), and a
// candidate is named only once it holds.
//
// A lattice depends on the schema's width and its longest list alone, and
// the lists up to ℓ attributes are a prefix of those up to ℓ+1, so one
// lattice per width serves every run of that width whose caps it covers
// (latticeOf). It is never written after it is built.
type lattice struct {
	pos    []uint16 // the lists back to back, as schema positions: list id is pos[off[id]:off[id+1]]
	off    []int32
	parent []int32 // id → id of the list minus its last attribute
	start  []int32 // lists of length ℓ are the ids start[ℓ] ≤ id < start[ℓ+1]
}

// list returns the list numbered id, as schema positions — the form the
// model table and the sort cache read.
func (la *lattice) list(id int32) []uint16 { return la.pos[la.off[id]:la.off[id+1]] }

// maxLen is the length of the lattice's longest lists.
func (la *lattice) maxLen() int { return len(la.start) - 2 }

// buildLattice enumerates the duplicate-free lists of up to maxLen of width
// attributes. A position fits 16 bits: CheckSize admits no schema wider than
// 4,095 attributes, whose one-attribute lists alone span 4,096² candidates.
func buildLattice(width, maxLen int) *lattice {
	count := listCount(width, maxLen)
	la := &lattice{
		off:    append(make([]int32, 0, count+1), 0, 0),
		parent: append(make([]int32, 0, count), 0),
		start:  []int32{0, 1},
	}
	for length := 1; length <= maxLen; length++ {
		for p := la.start[length-1]; p < la.start[length]; p++ {
			for c := range width {
				if !slices.Contains(la.list(p), uint16(c)) {
					la.pos = append(append(la.pos, la.list(p)...), uint16(c))
					la.off = append(la.off, int32(len(la.pos)))
					la.parent = append(la.parent, p)
				}
			}
		}
		la.start = append(la.start, int32(len(la.parent)))
	}
	return la
}

// sharedLattices holds, for each width up to maxTableAttrs, the lattice of
// the longest lists any run of that width has asked for: a fixed table,
// however many schemas and caps clients send, and each entry bounded by its
// width's full lattice.
var sharedLattices [maxTableAttrs + 1]atomic.Pointer[lattice]

// latticeOf returns a lattice over width attributes holding every list of up
// to maxLen ≤ width attributes, perhaps more. Up to maxTableAttrs attributes
// it is the width's shared one, rebuilt longer when a run asks past it — the
// ids of the shorter lists stay — and read by every run at once; a wider
// schema's is built for the run. Concurrent first uses may each build one;
// the longest published wins.
func latticeOf(width, maxLen int) *lattice {
	if width > maxTableAttrs {
		return buildLattice(width, maxLen)
	}
	e := &sharedLattices[width]
	if la := e.Load(); la != nil && la.maxLen() >= maxLen {
		return la
	}
	built := buildLattice(width, maxLen)
	for {
		la := e.Load()
		if la != nil && la.maxLen() >= maxLen {
			return la
		}
		if e.CompareAndSwap(la, built) {
			return built
		}
	}
}

// named renders a list of schema positions as the schema's attributes; the
// empty list is nil.
func named(attrs core.List, l []uint16) core.List {
	if len(l) == 0 {
		return nil
	}
	out := make(core.List, len(l))
	for i, p := range l {
		out[i] = attrs[p]
	}
	return out
}

// run is one pipeline run's mutable state — everything a run writes, the
// shared lattice being only read. It is one block, kept with the sort cache's
// core.Scratch between runs and cleared, so that successive runs reuse its
// memory: a warm run allocates the ODs that hold and little else.
type run struct {
	la             *lattice
	attrs          core.List
	maxLHS, maxRHS int   // side bounds, in attributes, at most the schema's width
	nRHS           int32 // ids below nRHS are right-hand sides; a candidate's slot is lhs·nRHS + rhs
	// refuted[slot] is the violation kind a candidate is known to fail by,
	// zero while it is not known to fail. It is written only between
	// levels, by the coordinating goroutine.
	refuted []core.ViolationKind

	// The level's context groups, the unit of parallel work: every candidate
	// of the level sharing a left-hand context, answered over one cached
	// sorted partition. Group g is the left-hand side groupLHS[g] with the
	// right-hand sides rhss[groupOff[g]:groupOff[g+1]].
	groupLHS, groupOff, rhss []int32

	workers []worker
	table   modelTable
	held    []core.OD // the level's holding candidates, named
}

// worker is what one validating goroutine writes during a level: its share
// of the level's outcome, and its scratch.
type worker struct {
	holding              [][2]int32   // (lhs, rhs) of each candidate found to hold
	refuted              []refutation // each candidate found to fail
	pruned, checks, rows uint64       // closure-pruned candidates, data checks, rows scanned
	err                  error

	le    []uint64 // the models the group's left-hand side orders
	cols  []int    // a list's positions, as core takes them
	rhs   []int32  // the group's right-hand sides that reach the data
	flat  []int    // their positions, back to back
	ys    [][]int  // each one's positions, cut from flat
	kinds []core.ViolationKind
}

// refutation records a candidate found to fail on the data, by slot, with the
// violation kind that decides how it propagates: splits poison every RHS
// extension, swaps poison RHS and LHS extensions both.
type refutation struct {
	slot int32
	kind core.ViolationKind
}

// newRun takes the scratch's block, or makes one, for a run over the
// relation's attributes with left-hand sides up to maxLHS and right-hand
// sides up to maxRHS attributes, and the given worker count.
// Options.CheckSize bounds the refutation table.
func newRun(sc *core.Scratch, attrs core.List, maxLHS, maxRHS, workers int) *run {
	// No duplicate-free list is longer than the schema.
	maxLHS, maxRHS = min(maxLHS, len(attrs)), min(maxRHS, len(attrs))
	b, _ := sc.SwapRun(nil, 0).(*run)
	if b == nil {
		b = new(run)
	}
	b.la, b.attrs = latticeOf(len(attrs), max(maxLHS, maxRHS)), attrs
	b.maxLHS, b.maxRHS = maxLHS, maxRHS
	b.nRHS = b.la.start[maxRHS+1]
	b.refuted = sized(b.refuted, int(b.la.start[maxLHS+1]*b.nRHS))
	clear(b.refuted)
	b.workers = sized(b.workers, workers)
	return b
}

// release leaves the block with the scratch; the run must not be used after.
func (b *run) release(sc *core.Scratch) {
	b.la, b.attrs = nil, nil
	if core.ScratchCheck {
		for i := range b.refuted {
			b.refuted[i] = core.Swap
		}
	}
	sc.SwapRun(b, cap(b.refuted))
}

// sized returns buf resliced to n elements, reallocated only when too small;
// the contents are unspecified.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
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
	// The run's partitions are its own: every worker is done with them when
	// it returns, so the cache's Release resets them for the next run, and
	// the run block goes back to the cache's scratch first.
	cache := core.NewSortCache(r)
	defer cache.Release()
	sc := cache.Scratch()
	b := newRun(sc, attrs, opts.MaxLHS, opts.MaxRHS, workers)
	defer b.release(sc)

	var pr pruning
	switch {
	case opts.KeepRedundant:
	case useTable:
		b.table.reset(attrs)
		pr.table = &b.table
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

	maxLevel := opts.MaxLHS + opts.MaxRHS
	for level := 1; level <= maxLevel; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.levelGroups(level, &res.Stats)
		res.Stats.Levels = level
		if len(b.groupLHS) == 0 {
			continue
		}
		for i := range b.workers {
			w := &b.workers[i]
			w.holding, w.refuted = w.holding[:0], w.refuted[:0]
			w.pruned, w.checks, w.rows, w.err = 0, 0, 0, nil
		}
		runGroups(len(b.groupLHS), workers, func(w, g int) {
			b.validateGroup(ctx, r, pr, cache, &b.workers[w], g)
		})
		if err := b.commit(ctx, pr, res, opts.OnFound); err != nil {
			return nil, err
		}
	}

	_, hits, misses := cache.Stats()
	res.Stats.CacheHits, res.Stats.CacheMisses = hits, misses
	res.Kernel = cache.Kernel()
	// Each cache miss paid one sort pass and one tie pass; hits paid nothing.
	res.Stats.RowsScanned += 2 * misses * uint64(r.Len())
	res.Constants = constantsOf(res.ODs)
	return res, nil
}

// commit folds a level's outcome into the run: the counters, the
// refutations into the table the next level propagates from, and the ODs
// that hold into the pruning state and the stream. Those are named here —
// the only candidates that ever are — and committed in key order, Discover's,
// each unless those committed before imply it. An implied OD would clear no
// model and extend no closure, so dropping it changes no later verdict. The
// workers' shares merge in any order: the counters add, the refutations
// write distinct slots, and the ODs are sorted.
func (b *run) commit(ctx context.Context, pr pruning, res *PipelineResult, onFound func(core.OD)) error {
	b.held = b.held[:0]
	for i := range b.workers {
		w := &b.workers[i]
		if w.err != nil {
			return w.err
		}
		res.Stats.ClosurePruned += w.pruned
		res.Stats.DataChecks += w.checks
		res.Stats.RowsScanned += w.rows
		for _, rf := range w.refuted {
			b.refuted[rf.slot] = rf.kind
		}
		for _, c := range w.holding {
			b.held = append(b.held, b.name(c[0], c[1]))
		}
	}
	core.SortODs(b.held)
	for _, od := range b.held {
		if pr.table != nil {
			if pr.table.implies(od) {
				continue
			}
			pr.table.accept(od)
		}
		if pr.cat != nil {
			implied, err := pr.cat.ImpliesCtx(ctx, od)
			if err != nil {
				return err
			}
			if implied {
				continue
			}
			pr.cat.Apply([]catalog.Mutation{{ODs: []core.OD{od}}})
		}
		res.ODs = append(res.ODs, od)
		res.Stats.Accepted++
		if onFound != nil {
			onFound(od)
		}
	}
	return nil
}

// name renders the candidate lhs ↦ rhs with the schema's attributes, both
// sides in one block of their own; the empty list stays nil, as everywhere
// else.
func (b *run) name(lhs, rhs int32) core.OD {
	x, y := b.la.list(lhs), b.la.list(rhs)
	names := make(core.List, len(x)+len(y))
	for i, p := range x {
		names[i] = b.attrs[p]
	}
	for i, p := range y {
		names[len(x)+i] = b.attrs[p]
	}
	var l core.List
	if len(x) > 0 {
		l = names[:len(x):len(x)]
	}
	return core.NewOD(l, names[len(x):])
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
func (b *run) levelGroups(level int, stats *PipelineStats) {
	la := b.la
	b.groupLHS, b.groupOff, b.rhss = b.groupLHS[:0], b.groupOff[:0], b.rhss[:0]
	for lhsLen := max(0, level-b.maxRHS); lhsLen <= min(level-1, b.maxLHS); lhsLen++ {
		rhsLen := level - lhsLen
		for lhs := la.start[lhsLen]; lhs < la.start[lhsLen+1]; lhs++ {
			x, opened := la.list(lhs), false
			for rhs := la.start[rhsLen]; rhs < la.start[rhsLen+1]; rhs++ {
				// Both lists are duplicate-free, so the OD is trivial
				// exactly when Y is a prefix of X.
				if y := la.list(rhs); len(y) <= len(x) && slices.Equal(x[:len(y)], y) {
					continue
				}
				stats.Candidates++
				if kind := b.propagated(lhs, rhs); kind != 0 {
					stats.RefutationPruned++
					b.refuted[lhs*b.nRHS+rhs] = kind
					continue
				}
				if !opened {
					b.groupLHS = append(b.groupLHS, lhs)
					b.groupOff = append(b.groupOff, int32(len(b.rhss)))
					opened = true
				}
				b.rhss = append(b.rhss, rhs)
			}
		}
	}
	b.groupOff = append(b.groupOff, int32(len(b.rhss)))
}

// propagated returns the violation kind a candidate inherits from a refuted
// prefix candidate, or zero when neither immediate prefix refutes it.
func (b *run) propagated(lhs, rhs int32) core.ViolationKind {
	// An LHS-propagated swap stays a swap; prefer it when both prefixes
	// prune, since swaps poison more of the lattice above. The empty LHS has
	// no prefix (it is its own parent, and the slot is the candidate's own).
	if b.refuted[b.la.parent[lhs]*b.nRHS+rhs] == core.Swap {
		return core.Swap
	}
	// A one-attribute RHS has the empty prefix, whose slot no candidate ever
	// writes: X ↦ [] is trivial.
	return b.refuted[lhs*b.nRHS+b.la.parent[rhs]]
}

// validateGroup answers context group g into the worker's share: closure-prune
// each candidate against the accepted set, then check the survivors against
// the data, all at once, over the context's order. A candidate is asked
// about by position; only the catalog, past maxTableAttrs attributes, is
// asked by name.
func (b *run) validateGroup(ctx context.Context, r *core.Relation, pr pruning,
	cache *core.SortCache, w *worker, g int) {
	if w.err != nil {
		return
	}
	lhs := b.groupLHS[g]
	x := b.la.list(lhs)
	if pr.table != nil {
		w.le = pr.table.under(w.le, x)
	}
	w.rhs = w.rhs[:0]
	for _, rhs := range b.rhss[b.groupOff[g]:b.groupOff[g+1]] {
		if w.err = ctx.Err(); w.err != nil {
			return
		}
		y := b.la.list(rhs)
		implied := false
		switch {
		case pr.table != nil:
			implied = pr.table.orders(w.le, y)
		case pr.cat != nil:
			od := core.NewOD(named(b.attrs, x), named(b.attrs, y))
			if implied, w.err = pr.cat.ImpliesCtx(ctx, od); w.err != nil {
				return
			}
		}
		if implied {
			w.pruned++
			continue
		}
		w.rhs = append(w.rhs, rhs)
	}
	if len(w.rhs) == 0 {
		return
	}
	// A y cut from flat stays valid when flat grows: the array it is cut
	// from keeps its cells.
	w.flat, w.ys = w.flat[:0], w.ys[:0]
	for _, rhs := range w.rhs {
		from := len(w.flat)
		for _, p := range b.la.list(rhs) {
			w.flat = append(w.flat, int(p))
		}
		w.ys = append(w.ys, w.flat[from:len(w.flat):len(w.flat)])
	}
	w.kinds = sized(w.kinds, len(w.rhs))
	if w.err = cache.CheckGroup(w.positions(x), w.ys, w.kinds); w.err != nil {
		return
	}
	w.checks += uint64(len(w.rhs))
	w.rows += uint64(len(w.rhs)) * uint64(r.Len())
	for i, rhs := range w.rhs {
		if kind := w.kinds[i]; kind == 0 {
			w.holding = append(w.holding, [2]int32{lhs, rhs})
		} else {
			w.refuted = append(w.refuted, refutation{slot: lhs*b.nRHS + rhs, kind: kind})
		}
	}
}

// positions returns the list's positions as core takes them, in the
// worker's scratch.
func (w *worker) positions(l []uint16) []int {
	w.cols = w.cols[:0]
	for _, p := range l {
		w.cols = append(w.cols, int(p))
	}
	return w.cols
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

// runGroups answers groups 0..groups-1 over at most workers goroutines, do(w,
// g) answering group g as worker w < workers. Groups are pulled from a shared
// counter, so large levels load-balance across however many workers the
// caller allows.
func runGroups(groups, workers int, do func(w, g int)) {
	workers = min(workers, groups)
	if workers <= 1 {
		for g := range groups {
			do(0, g)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := int(next.Add(1) - 1); g < groups; g = int(next.Add(1) - 1) {
				do(w, g)
			}
		}()
	}
	wg.Wait()
}
