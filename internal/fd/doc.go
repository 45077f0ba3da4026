// Package fd is the Armstrong-closure reference: functional dependencies as
// attribute-set pairs, the closure algorithm, implication by the closure
// test, and the FD check on a relation instance.
//
// The paper's Theorem 13 identifies the FD set(X) → set(Y) with the OD
// X ↦ XY (FD.OD), and its Theorem 16 shows the OD axiom system subsumes
// Armstrong's — so nothing in the service reasons with this package: the
// rewriter holds an FD as that OD and asks the OD prover (internal/rewrite).
// What remains is the independent witness: internal/armstrong builds
// Ullman's two-row split tables (the paper's Figure 7) from Closure, and the
// prover, inference and rewrite tests compare FD-form answers with Implies.
package fd
