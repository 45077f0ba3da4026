package rewrite

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"odlib/internal/core"
	"odlib/internal/fd"
	"odlib/internal/inference"
	"odlib/internal/prover"
)

// Constraints carries the declared dependency knowledge available to the
// rewriter: a set of order dependencies. A functional dependency is the OD
// X ↦ XY (Theorem 13) and is held as one. The zero value means no knowledge.
//
// A Constraints value describes one constraint state and, once built and
// handed its Oracle, is safe for concurrent use whenever that Oracle is (the
// default one is).
type Constraints struct {
	ODs []core.OD

	oracle Oracle // UseOracle's; nil means localProver
	once   sync.Once
	prov   *prover.Prover // over ODs, compiled by the first Prover call
}

// Oracle answers the implication questions a reduction asks. The rewriter
// itself is pure list surgery; every elimination it performs is justified by
// one "does X order Y?" question, and an Oracle is whoever answers them: the
// Constraints' own prover by default, the constraint catalog's current
// generation inside the daemon (internal/catalog — the questions descend its
// verdict tiers), a remote catalog (pkg/odclient) when the optimizer runs
// apart from the daemon that owns the constraints.
type Oracle interface {
	// OrdersBy reports whether the constraint set implies x ↦ y.
	// Cancelling ctx aborts the underlying decision.
	OrdersBy(ctx context.Context, x, y core.List) (bool, error)
}

// NewConstraints bundles FDs and ODs into one OD set: each FD joins the ODs
// in its FD form (fd.FD.OD). Each OD's implied FD (Lemma 1) needs no stating
// — it follows from the OD — so with no FDs this is the given slice.
func NewConstraints(fds []fd.FD, ods []core.OD) *Constraints {
	all := slices.Clip(ods) // appending must not write into the caller's array
	for _, f := range fds {
		all = append(all, f.OD())
	}
	return &Constraints{ODs: all}
}

// UseOracle routes the rewriter's implication questions through o instead of
// the local prover: the seam that lets every rewrite and planner call site
// run against a catalog, in process or remote. Every question a reduction
// asks crosses the seam, FD steps included (they are asked as FD-form ODs),
// so a reduction reads c.ODs only for Proof and Check. The oracle must
// answer for the same constraint set c was built over, or reductions lose
// their order-equivalence guarantee. Install it before the value is shared.
func (c *Constraints) UseOracle(o Oracle) *Constraints {
	c.oracle = o
	return c
}

// Prover returns the implication prover over the OD set, compiled on the
// first call. It is what the default Oracle asks; an installed Oracle does
// not change it.
func (c *Constraints) Prover() *prover.Prover {
	c.once.Do(func() { c.prov = prover.New(c.ODs) })
	return c.prov
}

// localProver is the default Oracle: the Constraints' own prover.
type localProver struct{ c *Constraints }

// OrdersBy implements Oracle. With no ODs implication is triviality, so no
// prover is compiled and the attribute guard never meets the question.
func (l localProver) OrdersBy(ctx context.Context, x, y core.List) (bool, error) {
	od := core.NewOD(x, y)
	if len(l.c.ODs) == 0 {
		return od.Trivial(), nil
	}
	return l.c.Prover().ImpliesCtx(ctx, od)
}

// ordersBy asks the Oracle whether the constraints imply X ↦ Y. Cancelling
// ctx aborts the underlying decision.
func (c *Constraints) ordersBy(ctx context.Context, x, y core.List) (bool, error) {
	o := c.oracle
	if o == nil {
		o = localProver{c}
	}
	return o.OrdersBy(ctx, x, y)
}

// determines asks whether set(x) functionally determines set(y), as the
// FD-form OD question x ↦ x·y it is (Theorem 13).
func (c *Constraints) determines(ctx context.Context, x, y core.List) (bool, error) {
	return c.ordersBy(ctx, x, x.Concat(y))
}

// Step records one segment elimination performed by a reduction, with the
// rule that justified it.
type Step struct {
	Seg  core.List // the contiguous segment dropped
	Pos  int       // its starting position in the list at the time of the drop
	Rule string    // "fd-eliminate" or "od-left-eliminate"
	// By holds the justifying dependency: for fd-eliminate the determining
	// prefix, for od-left-eliminate the ordering postfix.
	By core.List
}

// Result is a reduction outcome: the reduced list and the eliminations that
// produced it.
type Result struct {
	Input   core.List
	Reduced core.List
	Steps   []Step
}

// dropDetermined is the FD step every sweep shares: when set(by) functionally
// determines the attribute at position i it is eliminated, the step recorded.
func (r *Result) dropDetermined(ctx context.Context, c *Constraints, i int, by core.List) (bool, error) {
	seg := r.Reduced[i : i+1]
	ok, err := c.determines(ctx, by, seg)
	if err == nil && ok {
		r.Steps = append(r.Steps, Step{Seg: seg.Clone(), Pos: i, Rule: "fd-eliminate", By: by.Clone()})
		r.Reduced = r.Reduced.Prefix(i).Concat(r.Reduced.Suffix(i + 1))
	}
	return ok, err
}

// ReduceOrderFD is ReduceOrder of [17]: right-to-left, drop an attribute
// when the prefix set to its left functionally determines it.
func ReduceOrderFD(ctx context.Context, order core.List, c *Constraints) (Result, error) {
	res := Result{Input: order, Reduced: order.Normalize()}
	for i := len(res.Reduced) - 1; i >= 0; i-- {
		if _, err := res.dropDetermined(ctx, c, i, res.Reduced.Prefix(i)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// ReduceOrder is ReduceOrder+ of Section 2.3: the FD sweep of
// ReduceOrderFD, plus the OD step — drop an attribute when some postfix
// list immediately to its right orders it (Theorem 8). The sweep repeats
// until the list is stable.
func ReduceOrder(order core.List, c *Constraints) (Result, error) {
	return ReduceOrderCtx(context.Background(), order, c)
}

// ReduceOrderCtx is ReduceOrder honoring cancellation: the implication
// searches behind either step abort when ctx dies, surfacing its error.
func ReduceOrderCtx(ctx context.Context, order core.List, c *Constraints) (Result, error) {
	res := Result{Input: order, Reduced: order.Normalize()}
	for changed := true; changed; {
		changed = false
		for i := len(res.Reduced) - 1; i >= 0 && !changed; i-- {
			prefix := res.Reduced.Prefix(i)
			var err error
			if changed, err = res.dropDetermined(ctx, c, i, prefix); err != nil {
				return res, err
			}
			// OD step (Theorem 8): drop the segment starting at i when a
			// list immediately to its right orders the whole segment. The
			// paper's D ↦ BC example needs multi-attribute segments: ABCD
			// reduces to AD by dropping BC at once, while neither B nor C
			// can go alone.
			for l := 1; i+l <= len(res.Reduced) && !changed; l++ {
				seg := res.Reduced[i : i+l]
				rest := res.Reduced.Suffix(i + l)
				for j := 1; j <= len(rest); j++ {
					post := rest.Prefix(j)
					ok, err := c.ordersBy(ctx, post, seg)
					if err != nil {
						return res, err
					}
					if ok {
						res.Steps = append(res.Steps, Step{Seg: seg.Clone(), Pos: i, Rule: "od-left-eliminate", By: post.Clone()})
						res.Reduced = prefix.Concat(rest)
						changed = true
						break
					}
				}
			}
		}
	}
	return res, nil
}

// Equivalent reports whether the constraints imply ORDER BY a and ORDER BY b
// produce identical orderings (a ↔ b).
//
// The two directions are two separate Oracle questions, which against a
// remote catalog under concurrent mutation may be answered by different
// constraint generations — like every oracle-backed sweep, a Constraints
// value describes one constraint state and callers mutating that state
// concurrently get no atomicity across questions. For a generation-atomic
// remote equivalence check, ask the daemon one "<->" statement instead
// (odclient's Reasoner.Equivalent does exactly that).
func Equivalent(a, b core.List, c *Constraints) (bool, error) {
	ctx := context.Background()
	ok, err := c.ordersBy(ctx, a, b)
	if err != nil || !ok {
		return false, err
	}
	return c.ordersBy(ctx, b, a)
}

// Covers reports whether a tuple stream ordered by "have" satisfies an
// ORDER BY "want" under the constraints, i.e. have ↦ want. Strengthening is
// allowed (have may order more), weakening is not — the asymmetry the paper
// stresses for directional ODs.
func Covers(have, want core.List, c *Constraints) (bool, error) {
	return c.ordersBy(context.Background(), have, want)
}

// ReduceGroupBy minimizes a GROUP BY attribute set: an attribute
// functionally determined by the remaining ones is redundant for
// partitioning. The attributes keep their given order. This is the classic
// FD-based group-by simplification of [17]; unlike order reduction it may
// use determinants on either side.
func ReduceGroupBy(ctx context.Context, group core.List, c *Constraints) (Result, error) {
	res := Result{Input: group, Reduced: group.Normalize()}
	for changed := true; changed; {
		changed = false
		for i := len(res.Reduced) - 1; i >= 0 && !changed; i-- {
			rest := res.Reduced.Prefix(i).Concat(res.Reduced.Suffix(i + 1))
			var err error
			if changed, err = res.dropDetermined(ctx, c, i, rest); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// GroupBySatisfiedBy reports whether a stream ordered by "order" can compute
// GROUP BY "group" with a streaming aggregate. The group's equivalence
// classes must appear contiguously in the sorted stream, which holds when
// some prefix P of the order list partitions exactly like the group: set(P)
// and set(group) functionally determine each other. Sorting by year, month,
// day therefore satisfies GROUP BY year, quarter, month given the FD
// month → quarter (Section 2.2: "group divisions can be found on the fly in
// the stream"), while sorting by year alone does not.
func GroupBySatisfiedBy(ctx context.Context, order core.List, group core.List, c *Constraints) (bool, error) {
	for i := 0; i <= len(order); i++ {
		p := order.Prefix(i)
		ok, err := c.determines(ctx, p, group)
		if err == nil && ok {
			ok, err = c.determines(ctx, group, p)
		}
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// Proof produces a machine-checkable equivalence proof Input ↔ Reduced for
// a reduction result, expanding each recorded step into axiom-level
// inferences. The assumptions are the constraint ODs plus, for fd-eliminate
// steps, the FD-form ODs of the determining FDs.
func (r Result) Proof(c *Constraints) (*inference.Proof, error) {
	if len(r.Steps) == 0 && r.Input.Equal(r.Reduced) {
		return inference.ProveTheorem(nil, func(b *inference.Builder) int {
			return b.Self(r.Input)
		})
	}
	// Assumptions: every declared OD, plus FD-form ODs for prefixes used in
	// fd-eliminate steps.
	asm := make([]core.OD, 0, len(c.ODs)+2*len(r.Steps))
	seen := make(map[string]bool)
	addAsm := func(od core.OD) {
		if !seen[od.Key()] {
			seen[od.Key()] = true
			asm = append(asm, od)
		}
	}
	for _, od := range c.ODs {
		addAsm(od)
	}
	for _, s := range r.Steps {
		if s.Rule == "fd-eliminate" {
			addAsm(core.NewOD(s.By, s.By.Concat(s.Seg)))
		} else {
			addAsm(core.NewOD(s.By, s.Seg))
		}
	}
	derive := func(b *inference.Builder) int {
		// Walk the reduction again, chaining equivalences.
		nf, _ := b.NormalForm(r.Input)
		fwd := nf // Input ↦ cur
		cur := r.Input.Normalize()
		for _, s := range r.Steps {
			var stepF int
			prefix := cur.Prefix(s.Pos)
			rest := cur.Suffix(s.Pos + len(s.Seg))
			switch s.Rule {
			case "fd-eliminate":
				// The FD set(prefix) → seg corresponds to the FD-form OD
				// prefix ↦ prefix·seg (Theorem 13); together with
				// Reflexivity it gives prefix ↔ prefix·seg, and Replace
				// drops the segment in place.
				af := b.Assume(core.NewOD(s.By, s.By.Concat(s.Seg))) // prefix ↦ prefix·seg
				ab := b.Refl(s.By, s.Seg)                            // prefix·seg ↦ prefix
				repF, _ := b.Replace(ab, af, nil, rest)              // prefix·seg·rest ↦ prefix·rest
				stepF = repF
			case "od-left-eliminate":
				od := b.Assume(core.NewOD(s.By, s.Seg)) // post ↦ seg
				// Left Eliminate: M·seg·post·N ↔ M·post·N with M = prefix,
				// post at the head of rest, N the remainder.
				n := rest.Suffix(len(s.By))
				lf, _ := b.LeftEliminate(od, prefix, n)
				stepF = lf
			default:
				return -1
			}
			fwd = b.Tran(fwd, stepF)
			cur = prefix.Concat(rest)
		}
		if !cur.Equal(r.Reduced) {
			return -1
		}
		return fwd
	}
	return inference.ProveTheorem(asm, derive)
}

// Check validates a reduction semantically: under the constraints, the
// reduced list must be order equivalent to the input. It is used by tests
// and by callers that want defense in depth around the rewriter.
func (r Result) Check(c *Constraints) error {
	ods := append([]core.OD{}, c.ODs...)
	for _, s := range r.Steps {
		if s.Rule == "fd-eliminate" {
			ods = append(ods, core.NewOD(s.By, s.By.Concat(s.Seg)))
		}
	}
	p := prover.New(ods)
	ok, err := p.ImpliesAll(core.Equivalence(r.Input, r.Reduced))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("rewrite: reduction of %v to %v is not order preserving", r.Input, r.Reduced)
	}
	return nil
}
