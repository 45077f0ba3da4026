// Package rewrite implements order-based query rewrites over ORDER BY and
// GROUP BY lists.
//
// ReduceOrderFD is the ReduceOrder algorithm of Simmen, Shekita and Malkemus
// ("Fundamental techniques for order optimization", SIGMOD 1996 — the
// paper's [17]): sweep the order list right to left and drop an attribute
// whenever the set of attributes to its left functionally determines it.
//
// ReduceOrder extends it with the paper's order-dependency step
// (Section 2.3, "ReduceOrder+"): an attribute is also dropped when a list of
// attributes to its right orders it — justified by Theorem 8 (Left
// Eliminate). With the OD [month] ↦ [quarter], both ORDER BY year, month,
// quarter and ORDER BY year, quarter, month reduce to year, month, which no
// FD reasoning can do (Example 1: string-valued quarters order Fall, Spring,
// Summer, Winter — functional determination says nothing about order).
//
// Every reduction this package performs preserves order equivalence: the
// reduced list L′ satisfies L ↔ L′ under the given constraints, so a tuple
// stream ordered by L′ satisfies an ORDER BY L and vice versa. Reductions
// return machine-checkable proofs of the equivalence on request.
//
// The rewriter itself is pure list surgery; every elimination is justified
// by one "does X order Y?" question — an FD is the OD X ↦ XY (Theorem 13),
// so "does set(X) determine a?" is asked as "does X order X·a?" and
// Constraints holds ODs only — and every such question is asked through the
// Oracle seam: there is no other way to a prover, nor a second decision
// procedure beside it. Three
// implementers answer it: by default the Constraints' own prover, compiled
// on first use; inside the daemon the constraint catalog's current
// generation (internal/catalog), so a rewrite's questions descend the same
// verdict tiers, under the same counters, as a prove; and pkg/odclient's
// Reasoner, which is how these same sweeps run against a remote catalog.
// UseOracle installs the latter two. A Constraints value describes one
// constraint state and is safe for concurrent use whenever its Oracle is.
package rewrite
