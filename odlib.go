// Package odlib is a library for reasoning about order dependencies (ODs)
// over lexicographically ordered tuples, implementing "Fundamentals of Order
// Dependencies" (Szlichta, Godfrey, Gryz; PVLDB 5(11), 2012).
//
// An order dependency X ↦ Y — with X and Y lists of attributes — states
// that sorting a relation by X also sorts it by Y. ODs generalize
// functional dependencies and license query rewrites that FDs cannot, such
// as dropping quarter from ORDER BY year, quarter, month given
// [month] ↦ [quarter].
//
// The facade re-exports the stable API:
//
//   - Parsing and semantics: L, ParseOD, ParseConstraints, relations with
//     split/swap witnesses (core types re-exported below).
//   - Reasoner: a sound and complete implication prover with two-row
//     counterexamples (the paper's future-work "theorem prover").
//   - Proofs: machine-checkable derivations in the paper's six-axiom
//     system, including all its derived theorems.
//   - ArmstrongRelation: the completeness construction — an instance
//     satisfying exactly the closure of a given OD set.
//   - ReduceOrderBy / OrderEquivalent: the ReduceOrder⁺ query rewrites.
//   - DiscoverODs: OD discovery from data.
//
// Deeper functionality (the execution engine, the planner and the TPC-DS
// style benchmark harness) lives in the internal packages and is exercised
// by the example programs and cmd/ tools.
package odlib

import (
	"odlib/internal/armstrong"
	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/inference"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
)

// Re-exported core types: lists are the fundamental notion of OD theory.
type (
	// Attribute is a named column.
	Attribute = core.Attribute
	// List is an ordered attribute list.
	List = core.List
	// OD is an order dependency between two lists.
	OD = core.OD
	// Relation is a relation instance for semantic checks.
	Relation = core.Relation
	// Violation is a split or swap witness falsifying an OD.
	Violation = core.Violation
	// Pattern is a two-row comparison pattern (counterexample form).
	Pattern = core.Pattern
	// Proof is a machine-checkable derivation in the six-axiom system.
	Proof = inference.Proof
	// ProofBuilder constructs derivations step by step.
	ProofBuilder = inference.Builder
)

// L builds an attribute list: L("year", "month").
func L(attrs ...string) List { return core.L(attrs...) }

// NewOD builds the order dependency lhs ↦ rhs.
func NewOD(lhs, rhs List) OD { return core.NewOD(lhs, rhs) }

// ParseOD parses "[A, B] -> [C]".
func ParseOD(s string) (OD, error) { return core.ParseOD(s) }

// ParseConstraints parses newline- or semicolon-separated OD statements,
// expanding "<->" (equivalence) and "~" (order compatibility).
func ParseConstraints(text string) ([]OD, error) { return core.ParseStatements(text) }

// NewRelation creates an empty relation over the schema.
func NewRelation(attrs List) (*Relation, error) { return core.NewRelation(attrs) }

// Reasoner decides logical implication for a fixed OD set. It is sound and
// complete: refutations come with two-row counterexamples. A Reasoner holds
// no state beyond the compiled constraints and is safe for concurrent use.
type Reasoner struct {
	p *prover.Prover
}

// NewReasoner builds a reasoner over the constraint set.
func NewReasoner(constraints []OD) *Reasoner {
	return &Reasoner{p: prover.New(constraints)}
}

// Implies reports whether the constraints logically imply od.
func (r *Reasoner) Implies(od OD) (bool, error) { return r.p.Implies(od) }

// Counterexample returns a two-row witness relation that satisfies the
// constraints and falsifies od, or nil when od is implied.
func (r *Reasoner) Counterexample(od OD) (*Relation, error) {
	ok, w, err := r.p.ImpliesWitness(od)
	if err != nil || ok {
		return nil, err
	}
	return w.Relation(), nil
}

// Equivalent reports whether the constraints imply x ↔ y: ORDER BY x and
// ORDER BY y produce identical orderings.
func (r *Reasoner) Equivalent(x, y List) (bool, error) { return r.p.Equivalent(x, y) }

// OrderCompatible reports whether the constraints imply x ~ y (XY ↔ YX).
func (r *Reasoner) OrderCompatible(x, y List) (bool, error) { return r.p.OrderCompatible(x, y) }

// ArmstrongRelation builds the paper's completeness construction over the
// universe: a relation satisfying every OD the constraints imply and
// falsifying every OD (over the universe) they do not.
func ArmstrongRelation(constraints []OD, universe List) (*Relation, error) {
	return armstrong.NewBuilder(0).CanonicalTable(constraints, universe)
}

// ReduceOrderBy minimizes an ORDER BY list under the constraints using the
// paper's ReduceOrder⁺: the result is order equivalent to the input.
func ReduceOrderBy(order List, constraints []OD) (List, error) {
	res, err := rewrite.ReduceOrder(order, rewrite.NewConstraints(nil, constraints))
	if err != nil {
		return nil, err
	}
	return res.Reduced, nil
}

// OrderEquivalent reports whether two ORDER BY lists are interchangeable
// under the constraints.
func OrderEquivalent(a, b List, constraints []OD) (bool, error) {
	return rewrite.Equivalent(a, b, rewrite.NewConstraints(nil, constraints))
}

// DiscoverODs mines a minimal set of order dependencies (sides up to two
// attributes) from a relation instance.
func DiscoverODs(r *Relation) ([]OD, error) {
	res, err := discover.Discover(r, discover.Options{})
	if err != nil {
		return nil, err
	}
	return res.ODs, nil
}

// Prove runs a derivation against the given assumptions and returns the
// verified proof; see inference.Builder for the available theorem steps.
func Prove(assumptions []OD, derive func(*ProofBuilder) int) (*Proof, error) {
	return inference.ProveTheorem(assumptions, derive)
}

// Catalog is a thread-safe OD constraint catalog with eagerly maintained
// transitive closure and memoized prover verdicts: the long-lived, shared
// form of Reasoner that concurrent queries consult at optimization time.
// cmd/odserve exposes one over HTTP.
type Catalog = catalog.Catalog

// NewCatalog creates an empty concurrent constraint catalog.
func NewCatalog(constraints ...OD) *Catalog {
	c := catalog.New()
	c.Add(constraints...)
	return c
}
