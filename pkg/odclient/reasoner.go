package odclient

import (
	"context"
	"fmt"

	"odlib/internal/core"
	"odlib/internal/rewrite"
)

// Reasoner is the odlib.Reasoner-shaped view of one remote shard: the same
// implication surface (Implies, Counterexample, Equivalent, OrderCompatible)
// answered by the daemon instead of a local prover, with every call riding
// the client's cache, coalescing and pipelining. It also implements
// rewrite.Oracle, which is what lets a *rewrite.Constraints — and through it
// every existing rewrite and planner call site — run against a remote
// catalog unchanged.
type Reasoner struct {
	c      *Client
	schema string
}

// Reasoner returns the implication view of the schema's shard. With an
// empty schema the daemon routes per its own rules (default shard, or
// prefix derivation when enabled).
func (c *Client) Reasoner(schema string) *Reasoner {
	return &Reasoner{c: c, schema: schema}
}

// Implies reports whether the shard's declared ODs imply od.
func (r *Reasoner) Implies(ctx context.Context, od core.OD) (bool, error) {
	v, err := r.c.Prove(ctx, r.schema, od.String())
	if err != nil {
		return false, err
	}
	return v.Implied, nil
}

// Counterexample returns a two-row relation refuting od, or nil when od is
// implied — the remote form of odlib.Reasoner.Counterexample.
func (r *Reasoner) Counterexample(ctx context.Context, od core.OD) (*core.Relation, error) {
	v, err := r.c.Prove(ctx, r.schema, od.String())
	if err != nil || v.Implied {
		return nil, err
	}
	if v.Witness == nil {
		return nil, fmt.Errorf("odclient: refutation of %s came without a witness", od)
	}
	return v.Witness.Relation()
}

// Equivalent reports whether the shard implies x ↔ y. The two directions
// travel as one statement, so the daemon answers them against a single
// constraint snapshot.
func (r *Reasoner) Equivalent(ctx context.Context, x, y core.List) (bool, error) {
	return r.proveStmt(ctx, x.String()+" <-> "+y.String())
}

// OrderCompatible reports whether the shard implies x ~ y.
func (r *Reasoner) OrderCompatible(ctx context.Context, x, y core.List) (bool, error) {
	return r.proveStmt(ctx, x.String()+" ~ "+y.String())
}

// OrdersBy implements rewrite.Oracle: does the shard imply x ↦ y?
func (r *Reasoner) OrdersBy(ctx context.Context, x, y core.List) (bool, error) {
	return r.Implies(ctx, core.NewOD(x, y))
}

func (r *Reasoner) proveStmt(ctx context.Context, stmt string) (bool, error) {
	v, err := r.c.Prove(ctx, r.schema, stmt)
	if err != nil {
		return false, err
	}
	return v.Implied, nil
}

// Constraints builds a *rewrite.Constraints over the shard's current
// declared set. Every implication question a reduction asks — FD steps and
// OD steps alike — is answered remotely through the Reasoner oracle, always
// from the daemon's current constraints, with the verdict cache keeping the
// answers generation-fresh; the declared ODs are fetched once only so that
// Result.Proof and Result.Check have their assumptions. Existing call sites
// — rewrite.ReduceOrder, the planner — accept the result unchanged; they
// cannot tell the catalog is remote. Rebuild after mutating the shard if
// Proof or Check will be called.
func (c *Client) Constraints(ctx context.Context, schema string) (*rewrite.Constraints, error) {
	l, err := c.Listing(ctx, schema)
	if err != nil {
		return nil, err
	}
	ods := make([]core.OD, 0, len(l.Declared))
	for _, s := range l.Declared {
		od, err := core.ParseOD(s)
		if err != nil {
			return nil, fmt.Errorf("odclient: listing statement %q: %w", s, err)
		}
		ods = append(ods, od)
	}
	return rewrite.NewConstraints(nil, ods).UseOracle(c.Reasoner(schema)), nil
}

// ReduceOrder reduces an ORDER BY list client-side with ReduceOrder⁺,
// asking the remote catalog only the implication questions the sweep needs
// — the coalesced, cached alternative to the daemon's own /rewrite
// endpoint (which Client.Rewrite exposes) for optimizers that want the
// Steps structure as Go values rather than wire JSON. The only requests it
// sends are proves: a reduction reads no constraint listing.
func (c *Client) ReduceOrder(ctx context.Context, schema string, order core.List) (rewrite.Result, error) {
	return rewrite.ReduceOrderCtx(ctx, order, rewrite.NewConstraints(nil, nil).UseOracle(c.Reasoner(schema)))
}
