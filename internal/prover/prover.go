package prover

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"odlib/internal/core"
)

// DefaultMaxAttrs bounds the number of distinct attributes a single
// implication question may entangle. The search cuts a subtree as soon as an
// assigned prefix decides a working OD, so most 14-attribute questions visit
// a few thousand nodes; the bound is for the ones no prefix decides — every
// OD led by an attribute that sorts last — which still enumerate all 3^14/2
// patterns (tens of milliseconds). Raise it explicitly via WithMaxAttrs if
// needed. Since the working set widens lazily, the bound is measured against
// the attributes a question actually needs, not against every constraint
// that shares an attribute with it.
const DefaultMaxAttrs = 14

// Verdict is a decided implication answer M ⊨ X ↦ Y: either implied, or
// refuted with a two-row counterexample pattern. The prover keeps none of
// them; callers that do (internal/catalog's memo and negative closure) must
// treat the witness as read-only, since one stored Verdict is served to many
// callers.
//
// The witness is compact: its universe is the attributes the decide
// entangled (at most the attribute guard), and every attribute it omits
// ties — Pattern.Sign, HoldsOD and the wire contract already read absent
// attributes as Equal. Callers that want every column of M (a realized
// relation) go through Prover.ImpliesWitnessCtx, which expands at the edge.
//
// Cost records how expensive the verdict was to compute — search nodes
// explored divided by the number of entangled attributes, floored at 1 — so
// bounded caches can evict cheap verdicts first: re-deriving a 4-attribute
// answer is noise, re-running a near-limit refutation is not.
type Verdict struct {
	Implied bool
	Witness *core.Pattern
	Cost    uint64
}

// Counters aggregates search effort across decides. A single Counters value
// can be shared by many provers (internal/catalog threads one through every
// per-generation prover it builds), so observers see cumulative work survive
// catalog mutations. All fields are atomic; the zero value is ready to use.
type Counters struct {
	// Nodes counts sign-enumeration tree nodes visited — each partial
	// assignment the search placed, including the ones propagation cut on
	// arrival — plus widening validations: the unit the cancellation tests
	// watch to assert an aborted search stopped burning work.
	Nodes atomic.Uint64
	// Searches counts decides: every question put to a prover, as opposed
	// to the ones a tier in front of it (internal/catalog) answered.
	Searches atomic.Uint64
	// Cancelled counts decides aborted by context cancellation or deadline.
	Cancelled atomic.Uint64
	// Widenings counts working-set widening rounds across all decides.
	Widenings atomic.Uint64
}

// CounterStats is a plain point-in-time copy of Counters, JSON-ready.
type CounterStats struct {
	Nodes     uint64 `json:"nodes"`
	Searches  uint64 `json:"searches"`
	Cancelled uint64 `json:"cancelled"`
	Widenings uint64 `json:"widenings"`
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() CounterStats {
	return CounterStats{
		Nodes:     c.Nodes.Load(),
		Searches:  c.Searches.Load(),
		Cancelled: c.Cancelled.Load(),
		Widenings: c.Widenings.Load(),
	}
}

// Prover answers implication questions against a fixed OD set M.
//
// Deciding is a pure function of the OD set and the question: a Prover
// remembers no verdict, nothing in it but its scratch pool is written after
// New, and it is safe for concurrent use. (The scratch pool is a sync.Pool;
// the shared Counters and Pool it may be handed are atomic and synchronized
// respectively.) Whoever wants a repeated question answered without a
// second search keeps the Verdict — internal/catalog does.
type Prover struct {
	ods      []core.OD
	universe core.List                // M's attributes, sorted
	index    map[core.Attribute]int32 // attribute → position in universe
	cods     []compiledOD             // ods over universe positions
	maxAttrs int
	workers  int
	pool     *Pool
	counters *Counters
	states   sync.Pool // *decideState scratch, reused across decides
}

// Option configures a Prover.
type Option func(*Prover)

// WithMaxAttrs overrides the attribute-count guard.
func WithMaxAttrs(n int) Option {
	return func(p *Prover) { p.maxAttrs = n }
}

// WithWorkers sets the goroutine count for the parallel pattern search.
// n <= 1 keeps the search sequential (the default); larger n splits the
// sign-enumeration tree into contiguous prefix blocks, one goroutine per
// block, cancelling the whole pool on the first counterexample. A search
// only fans out once it has spent fanOutAfterNodes inline — forking
// goroutines for a few thousand nodes costs more than it saves.
func WithWorkers(n int) Option {
	return func(p *Prover) {
		if n > maxWorkers {
			n = maxWorkers
		}
		if n < 1 {
			n = 1
		}
		p.workers = n
	}
}

// WithCounters installs a shared effort-counter sink. Passing nil keeps
// counting disabled.
func WithCounters(c *Counters) Option {
	return func(p *Prover) { p.counters = c }
}

// WithPool bounds the parallel search with a shared worker pool: instead of
// unconditionally spawning workers-1 goroutines per search, each search
// grabs as many non-blocking slots as the pool has free (possibly zero) and
// runs one block inline on the caller. Many provers — every shard, every
// catalog generation — share one Pool, so concurrent heavy proves split the
// machine instead of multiplying across it. Nil keeps the unpooled
// behavior.
func WithPool(pool *Pool) Option {
	return func(p *Prover) { p.pool = pool }
}

// New creates a prover for the OD set M, compiling it once: every decide
// afterwards runs on attribute positions, not names.
func New(m []core.OD, opts ...Option) *Prover {
	ods := make([]core.OD, len(m))
	copy(ods, m)
	universe, index, cods := compile(ods)
	p := &Prover{
		ods:      ods,
		universe: universe,
		index:    index,
		cods:     cods,
		maxAttrs: DefaultMaxAttrs,
		workers:  1,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// ODs returns the prescribed OD set M.
func (p *Prover) ODs() []core.OD { return p.ods }

// Universe returns the attributes mentioned by M, sorted.
func (p *Prover) Universe() core.List { return p.universe }

// Workers returns the configured search parallelism.
func (p *Prover) Workers() int { return p.workers }

// Implies reports whether M ⊨ od.
func (p *Prover) Implies(od core.OD) (bool, error) {
	return p.ImpliesCtx(context.Background(), od)
}

// ImpliesCtx is Implies honoring cancellation: when ctx is cancelled the
// search aborts and the context's error is returned.
func (p *Prover) ImpliesCtx(ctx context.Context, od core.OD) (bool, error) {
	v, err := p.DecideCtx(ctx, od)
	return v.Implied, err
}

// ImpliesWitness reports whether M ⊨ od; when it does not, it also returns a
// two-row counterexample pattern that satisfies M and falsifies od, over
// every attribute of M and od.
func (p *Prover) ImpliesWitness(od core.OD) (bool, *core.Pattern, error) {
	return p.ImpliesWitnessCtx(context.Background(), od)
}

// ImpliesWitnessCtx is ImpliesWitness honoring cancellation. A decide's
// witness is compact; this is the edge that expands it.
func (p *Prover) ImpliesWitnessCtx(ctx context.Context, od core.OD) (bool, *core.Pattern, error) {
	v, err := p.DecideCtx(ctx, od)
	if err != nil || v.Implied {
		return v.Implied, nil, err
	}
	return false, p.expandWitness(v.Witness, od), nil
}

// DecideCtx answers M ⊨ od with the whole Verdict — compact witness and
// cost — which is what a caller that stores verdicts wants (the search tier
// of internal/catalog's chain); every other entry point is a view of it.
//
// It decides by lazily widened restriction: it reasons over a working
// subset W ⊆ M — initially empty, so the first search universe is exactly
// the question's own attributes — and grows W only when forced. The
// loop invariant that makes this exact rests on how patterns extend: an
// attribute outside a pattern's universe reads as Equal, and an OD none of
// whose attributes carry a non-Equal sign is satisfied. So:
//
//   - "no counterexample against W" is conclusive: W ⊨ od implies M ⊨ od,
//     since M ⊇ W only adds premises;
//   - a candidate counterexample against W is validated against all of M
//     (with the Equal extension) before being believed; if some OD of
//     M \ W rejects it, that OD joins W and the search repeats.
//
// Each round either returns or strictly grows W, so the loop terminates
// within |M| rounds; W converges to the ODs the question actually entangles,
// which keeps both the 3^n search and the attribute-count guard proportional
// to the answer rather than to the whole prescribed set. Eager seeding (every
// OD sharing an attribute with the question) was the previous policy; it
// dragged entire constraint cascades — hub attributes touching dozens of
// ODs — into the universe and tripped the guard on questions whose answer
// needed two attributes.
//
// The returned Verdict's Cost counts the work done — search nodes plus
// candidate validations — per entangled attribute, for the eviction policy of
// whoever stores it.
func (p *Prover) DecideCtx(ctx context.Context, od core.OD) (Verdict, error) {
	if p.counters != nil {
		p.counters.Searches.Add(1)
	}
	// explored counts search-tree nodes and widen validations; the final
	// verdict records it normalized by the attribute count, and the shared
	// counters receive it on every exit path.
	var explored uint64
	defer func() {
		if p.counters != nil {
			p.counters.Nodes.Add(explored)
		}
	}()
	verdict := func(implied bool, w *core.Pattern, attrs int) Verdict {
		cost := explored / uint64(max(1, attrs))
		return Verdict{Implied: implied, Witness: w, Cost: max(cost, 1)}
	}

	// The split-half test (Theorem 15) is loop-invariant: the FD closure
	// depends only on the question and M's FDs, not on the working set.
	d := p.newDecideState(od)
	defer p.releaseDecideState(d)
	splitRefuted := !bitsCover(d.closure, d.q.rhs)

	for {
		if err := ctx.Err(); err != nil {
			if p.counters != nil {
				p.counters.Cancelled.Add(1)
			}
			return Verdict{}, err
		}
		n := d.layout()
		if n > p.maxAttrs {
			return Verdict{}, fmt.Errorf(
				"prover: question needs %d entangled attributes, exceeding the limit of %d (raise with WithMaxAttrs)",
				n, p.maxAttrs)
		}

		var signs []core.Sign
		if splitRefuted {
			// Split half: when the FD set(X) → set(Y) is not implied, the
			// Ullman two-row table over the closure of set(X) — Less on every
			// universe attribute outside the closure — is a candidate
			// counterexample that needs no search. The closure ran over all of
			// M's FDs, so no working OD can reject the table; one entirely
			// outside the universe may, and triggers widening.
			signs = d.signs
			for slot, id := range d.ids {
				signs[slot] = core.Equal
				if !bitHas(d.closure, id) {
					signs[slot] = core.Less
				}
			}
		} else {
			// Swap half: two-row pattern search against the working set —
			// parallel across prefix-sharded subtrees when configured.
			d.compileRound()
			found, nodes, err := p.runSearch(ctx, d)
			explored += nodes
			if err != nil {
				if p.counters != nil {
					p.counters.Cancelled.Add(1)
				}
				return Verdict{}, err
			}
			if found == nil {
				return verdict(true, nil, n), nil
			}
			signs = found
		}

		// A candidate is believed only once all of M accepts it; the first
		// OD rejecting it joins the working set and the round repeats.
		grew, visited := d.widen(signs)
		explored += visited
		if !grew {
			return verdict(false, d.witness(signs), n), nil
		}
		if p.counters != nil {
			p.counters.Widenings.Add(1)
		}
	}
}

// expandWitness lifts a compact counterexample onto the full universe of M
// and the question, filling the attributes the restricted search never
// assigned with Equal — the extension under which the candidate was
// validated. Callers that realize the witness as a relation (odprove, the
// odlib facade) then get every mentioned attribute as a column.
func (p *Prover) expandWitness(w *core.Pattern, od core.OD) *core.Pattern {
	attrs := p.universe
	if extras := p.outside(nil, od); len(extras) > 0 {
		attrs = attrs.Concat(extras)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	}
	out := core.MustPattern(attrs)
	signs := out.Signs()
	for i, a := range attrs {
		signs[i] = w.Sign(a)
	}
	return out
}

// ImpliesAll reports whether M implies every OD of the slice.
func (p *Prover) ImpliesAll(ods []core.OD) (bool, error) {
	return p.ImpliesAllCtx(context.Background(), ods)
}

// ImpliesAllCtx is ImpliesAll honoring cancellation.
func (p *Prover) ImpliesAllCtx(ctx context.Context, ods []core.OD) (bool, error) {
	for _, od := range ods {
		ok, err := p.ImpliesCtx(ctx, od)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Equivalent reports whether M ⊨ X ↔ Y.
func (p *Prover) Equivalent(x, y core.List) (bool, error) {
	return p.ImpliesAll(core.Equivalence(x, y))
}

// OrderCompatible reports whether M ⊨ X ~ Y (Definition 5).
func (p *Prover) OrderCompatible(x, y core.List) (bool, error) {
	return p.ImpliesAll(core.OrderCompat(x, y))
}

// IsConstant reports whether M forces attribute a to a single value
// (Definition 18): M ⊨ [] ↦ [a].
func (p *Prover) IsConstant(a core.Attribute) (bool, error) {
	return p.Implies(core.ConstantOD(a))
}

// Constants returns the attributes of M's universe that are constants.
func (p *Prover) Constants() (core.List, error) {
	var out core.List
	for _, a := range p.universe {
		ok, err := p.IsConstant(a)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, a)
		}
	}
	return out, nil
}

// EquivalentSets reports whether M and other have the same closure
// (Definition 9), by mutual implication of the generators.
func (p *Prover) EquivalentSets(other []core.OD) (bool, error) {
	if ok, err := p.ImpliesAll(other); err != nil || !ok {
		return false, err
	}
	q := New(other, WithMaxAttrs(p.maxAttrs), WithWorkers(p.workers), WithPool(p.pool), WithCounters(p.counters))
	return q.ImpliesAll(p.ods)
}
