// Package discover infers order dependencies from relation instances — the
// research direction the paper spawned (its Section 6 proposes OD
// determination for schema design; later work such as the authors' OD
// discovery algorithms industrialized it).
//
// Two paths share one candidate space. Discover is the sequential baseline:
// candidates enumerated shortest-first over duplicate-free attribute lists,
// each either pruned by implication from the ODs found so far (maintained
// incrementally in an internal/catalog) or validated against the data with a
// fresh sort-and-scan, yielding a minimal generating set.
//
// Pipeline is the parallel, level-wise engine. Each lattice level is pruned
// three ways before touching data — the catalog's incremental closure
// (holds by inference), refutation propagation through lexicographic
// prefixes (fails by inference: a refuted X ↦ Y poisons every X ↦ YW, and a
// swap additionally poisons every XW ↦ Y), and triviality — then the
// survivors are grouped by left-hand context and fanned across a bounded
// worker pool. Each context sorts the relation once into a cached
// core.SortedPartition and answers all its right-hand candidates from that
// order. Accepted ODs commit per level in one catalog Apply; the result is
// complete for the enumerated space (its closure equals Discover's) though
// not minimized within a level. All pruning decisions depend only on
// previous levels' committed state, so the data-check counts are identical
// across worker schedules.
//
// # The lattice's id scheme
//
// The pipeline's pruning plane runs on integers. The duplicate-free lists
// over the schema, up to the longer side bound, are enumerated once and
// numbered by length, then by schema position — id 0 is the empty list, ids
// below start[ℓ+1] are the lists of at most ℓ attributes — and parent[id]
// names the list minus its last attribute. A candidate X ↦ Y is the pair
// (id of X, id of Y); it is trivial exactly when Y is a prefix of X; its two
// propagation parents are (X, parent[Y]) and (parent[X], Y); and what is
// known to fail is one core.ViolationKind byte at slot lhs·|RHS ids| + rhs
// of a flat table written only between levels. No OD or list key string is
// built for a candidate, and an OD value only for those that survive to the
// catalog. Data checks run on core's rank views: a context is one counting
// sort, a candidate one scan of int32 ranks.
package discover
