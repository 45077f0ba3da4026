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
// as a data structure; the commit asks it the same question of each OD that
// holds. A table starts on its width's shared sign planes and, once the
// living patterns fit in half its words, re-packs them into planes of its
// own, so a question's cost follows the patterns still alive — two words of
// 64 on most of a date-dimension run's questions, where 3⁷ take 35. Wider schemas keep the accepted set in a
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
// of a flat table written only between levels.
//
// The lattice holds positions only — each list as its attributes' schema
// positions, back to back — so it depends on the schema's width and its
// longest list, never on names or data, and the lists up to ℓ attributes
// are a prefix of those up to ℓ+1. Up to maxTableAttrs attributes one
// lattice per width is built on first use and shared read-only by every run
// of that width, concurrent ones included, as the model table's sign planes
// are; a run asking for longer lists than it holds has it rebuilt longer,
// with the same ids for the shorter ones. The shared table is a fixed array
// of one entry per width, whatever schemas and caps clients send, and an
// entry never holds more than its width's full lattice (986,410 lists at
// nine attributes; the date dimension's runs use 260). A wider schema's
// lattice is built for the run and dropped with it.
//
// Everything a run writes is one block, kept with the relation's
// core.Scratch between runs and cleared: the refutation table, a level's
// context groups as one flat array of right-hand-side ids with an offset per
// left-hand side, each worker's share of the level's outcome — the (lhs,
// rhs) ids found to hold and the slots found to fail — and its plane of
// models, and the model table with the two plane buffers its repacks
// alternate between. No OD or list key string is built for a
// candidate: the model table reads positions, and a data check asks core by
// position too — the context's partition from the sort cache, keyed by
// column positions, and the right-hand side's rank views — with no name
// looked up. A candidate is named only once it holds, at its level's commit,
// for the key order and the stream, and the ODs a run accepts are the only
// ones copied out of the block. Data checks run on core's rank views: a
// context group's survivors of closure pruning go to core in one
// SortCache.CheckGroup call, which refutes them on a prefix of the context's
// order when it can and otherwise refines the context from its prefix's
// partition (one counting sort, for a single attribute); a candidate is one
// scan of int32 ranks. The physical work comes back as the result's Kernel,
// off the wire. A run's
// core.SortCache is released when the run ends, so the next run's
// partitions reuse its table and arrays.
package discover
