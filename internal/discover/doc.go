// Package discover infers order dependencies from relation instances — the
// research direction the paper spawned (its Section 6 proposes OD
// determination for schema design; later work such as the authors' OD
// discovery algorithms industrialized it).
//
// Two paths share one candidate space and return one answer. Discover is the
// sequential reference, run only by tests and bench/'s set-up check:
// candidates enumerated shortest-first over duplicate-free attribute lists,
// each either pruned by implication from the ODs found so far (maintained
// incrementally in an internal/catalog) or validated against the data with a
// fresh sort-and-scan, yielding a generating set in which no OD is implied by
// the ones found before it.
//
// Pipeline is the engine every product path runs — POST /discover,
// odlib.DiscoverODs, cmd/oddiscover — parallel and level-wise. Each lattice
// level is pruned three ways before touching data — the closure of the
// accepted set (holds by inference), refutation propagation through
// lexicographic prefixes (fails by inference: a refuted X ↦ Y poisons every
// X ↦ YW, and a swap additionally poisons every XW ↦ Y), and triviality — then
// the survivors are grouped by left-hand context and fanned across a bounded
// worker pool. Each context is ordered once into a cached
// core.SortedPartition — refined from the partition of its prefix, not sorted
// anew — and answers all its right-hand candidates from that order. ODs
// commit per level, between levels, in key order, and one that the ODs
// committed before it imply is dropped: it would extend no closure, so no
// later verdict changes, and what is left is Discover's set, OD for OD and in
// the same order. All pruning decisions depend only on previous levels'
// committed state, so the data-check counts are identical across worker
// schedules.
//
// # Closure pruning by model checking
//
// "Does the accepted set imply this candidate?" is asked once per candidate
// that survives the other two prunes, against a theory that changes only at
// the level commits. For schemas of at most maxTableAttrs attributes — every
// one the default MaxAttrs guard admits — Pipeline does not search for the
// answer: it keeps the theory as its models (models.go). The 3ⁿ two-row sign
// patterns are bit positions, one plane holds those satisfying every accepted
// OD, accepting an OD clears its falsifiers, and a candidate is implied iff
// no surviving pattern falsifies it — the prover's completeness argument read
// as a data structure, ≈ 0.1 µs a question; the commit asks it the same
// question of each OD that holds. Wider schemas keep the accepted set in a
// private internal/catalog, as every run once did, and descend its tier chain
// per candidate and per OD that holds, with one Apply per accepted OD; the
// split is on schema width alone. KeepRedundant asks no question, so it
// builds neither. Discover never uses the table: it is the independent
// witness the pipeline is differentially tested against.
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
// built for a candidate — pos[id] is the list as schema positions, which is
// all the model table reads — and one key per accepted OD, for the commit
// order. Data checks run on core's rank views: a context is one refinement
// of its prefix's partition (one counting sort, for a single attribute), a
// candidate one scan of int32 ranks.
package discover
