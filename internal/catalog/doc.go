// Package catalog provides a thread-safe order-dependency constraint
// catalog: the shared, long-lived store of declared ODs that concurrent
// queries consult at optimization time.
//
// The paper names an efficient OD theorem prover usable inside a DBMS as
// its primary future-work item (Section 6). A prover alone is not enough
// for that setting: the constraint set is shared mutable state (DDL adds
// and drops constraints while queries run), the same implication questions
// recur across queries, and the pattern search behind each answer is
// exponential in the mentioned attributes. The catalog supplies the missing
// machinery, following the shape of Hyrise's OrderDependency storage —
// hashing with equality buckets, inflate/deflate, eager transitive-closure
// construction — adapted to list-based OD semantics.
//
// Implication questions descend an explicit verdict tier chain, cheapest
// first; each tier's hits are counted in Stats:
//
//	trivial      syntactic triviality, no state consulted
//	closure      membership in the eagerly maintained transitive closure
//	negative     the verdict store holds a refutation, witness included
//	memo         the same bounded store, the same one lookup: it holds an
//	             implied verdict; each kind kept until a mutation can change it
//	search       the prover's (optionally parallel) pattern search; the
//	             verdict is filed in the store
//
// The chain is the one way to ask. Implies, the batch proves and the
// questions a rewrite asks (ReduceOrder, Covers, Equivalent) all descend
// it: the catalog's current generation is the rewriter's rewrite.Oracle,
// and the prover behind the last tier is a pure function that keeps no
// verdict of its own.
//
// All methods are safe for concurrent use. Mutations (Add, Remove) hold an
// exclusive lock, eagerly maintain the closure and publish one immutable
// generation value — the declared list in canonical order, the closure as
// an unordered set, a fresh prover, the rewrite constraints; reads copy that
// pointer under a brief shared lock and then decide outside any lock, so one
// expensive prove can never stall mutations — or, through a pending writer,
// the whole daemon. Canonical order (core.SortODs) is a listing concern: a
// mutation sorts the declared set once and nothing else, and Snapshot and
// Listing deflate and order the closure when called, on the caller's
// goroutine.
//
// The verdict store is valid for one generation and a mutation advances it
// before publishing the next: stored refutations are revalidated against what
// was net added, stored implied verdicts fall iff something was withdrawn,
// and a search that finishes after a mutation files nothing rather than
// poisoning the new generation. The Ctx method variants thread a
// context.Context into the search, so callers (the HTTP layer, with client
// disconnects and prove deadlines) can abort in-flight work.
package catalog
