// Package prover decides logical implication for order dependencies: given a
// set M of prescribed ODs, does M ⊨ X ↦ Y hold in every relation instance?
// The paper names an efficient OD theorem prover as its primary future-work
// item (Section 6); this package implements a sound and complete one.
//
// The procedure rests on two facts.
//
// First, ODs are two-tuple-local: Definition 4 quantifies over pairs of
// tuples, so a relation satisfies M exactly when each of its two-row
// subrelations does. Hence M ⊨ φ iff no two-row relation satisfies M while
// falsifying φ. A two-row relation is fully described, up to order
// isomorphism, by a core.Pattern — one sign from {<, =, >} per attribute —
// and only attributes mentioned in M and φ matter (all others can be set
// to "=" without affecting any comparison). The search space is therefore
// 3^n for n mentioned attributes. General OD implication is co-NP-complete
// (shown in the authors' follow-on work), so an exponent in n is expected.
// Three reductions keep the search small in practice: a pattern and its
// negation satisfy the same ODs, so the search fixes the first non-equal
// sign to "<", halving the space; the search runs against a lazily widened
// working subset of M — it starts from the question's own attributes alone
// and draws in an OD only when a candidate counterexample actually needs it
// (see DecideCtx) — so n tracks the question, not the size of the prescribed
// set, and cascades of entangled constraints cannot inflate the universe
// past what the answer requires; and the search propagates constraints: it
// assigns signs attribute by attribute in name order and, after each
// assignment, re-evaluates three-valued the working ODs mentioning that
// attribute, cutting the subtree as soon as one can no longer be satisfied
// or the question can no longer be falsified. Cuts remove only subtrees
// without counterexamples, so verdicts — and the first counterexample found
// — are those of the exhaustive enumeration (kept in oracle_test.go as the
// reference the kernel is fuzzed against), while a typical 12-attribute
// question visits hundreds of nodes instead of 3^12/2. What no prefix can
// decide — every OD led by the attribute that sorts last — still costs the
// full tree; the attribute guard and the worker pool are for those.
//
// The node counter (Counters.Nodes, Verdict.Cost) counts every partial
// assignment the search placed, including the ones cut on arrival, plus one
// per OD of M examined while validating a candidate.
//
// Representation: New compiles M once — attributes interned to positions in
// the sorted universe, every OD to position lists — and a decide works on
// integers only: bitsets for the split closure and the working universe, a
// position-indexed sign array for validating candidates against all of M,
// per-round slot lists for the search. Those tables are a decide's scratch:
// each Prover keeps a sync.Pool of them, a decide re-cuts the arrays an
// earlier one left and hands them back when it returns, so a repeated
// implied question allocates nothing and a refuted one only its witness,
// which is copied out and never aliases pooled memory. Nothing is allocated
// per search node.
//
// A Prover is a pure decision procedure: New compiles M, nothing is written
// afterwards but its scratch pool, no verdict is remembered, and every
// method is safe for concurrent use. Remembering answers is the business of whoever asks —
// internal/catalog keeps a closure, a negative closure and a memo in front
// of DecideCtx and counts which of them answered.
//
// Witnesses are stored compact, omitted attributes tie, and they are
// expanded at the edge: a refuting Verdict carries its counterexample over
// the attributes the decide entangled (at most the attribute guard), which
// is what the catalog's tiers retain; Pattern.Sign, HoldsOD, the catalog's negative
// closure and the wire format all read an absent attribute as Equal.
// ImpliesWitness(Ctx) — the entry point of odprove and the odlib facade,
// whose callers realize the witness as a relation with every column —
// lifts it onto the full universe of M and the question.
//
// Second, by Theorem 15 an OD can only fail via a split (an FD violation) or
// a swap. The split half reduces to Armstrong closure over the FDs implied
// by M (Lemma 1, Theorem 13), which the prover checks first in polynomial
// time; when it fails, the familiar two-row Ullman table is returned as the
// counterexample without any search.
//
// Searches accept a context.Context and may be cancelled mid-enumeration;
// with WithWorkers a search that has spent its inline node budget is split
// by sign prefix across a goroutine pool that aborts wholesale on the first
// counterexample found.
package prover
