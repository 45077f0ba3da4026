// Package core implements the foundational definitions of order dependency
// (OD) theory from "Fundamentals of Order Dependencies" (Szlichta, Godfrey,
// Gryz; PVLDB 5(11), 2012): attribute lists, relation instances, the
// lexicographic tuple operators ≼, ≺ and =X (Definitions 1-3), order
// dependencies and order compatibility (Definitions 4-5), and the split/swap
// falsification witnesses (Definitions 13-14, Theorem 15).
//
// Unlike functional dependencies, order dependencies are stated over lists of
// attributes: [A, B] ↦ [C] and [B, A] ↦ [C] are different statements. List is
// therefore the central type of the package, and set views are derived from
// it rather than the other way around.
//
// The package also provides two-row comparison patterns (Pattern). An OD is a
// constraint on pairs of tuples, so a relation satisfies a set of ODs exactly
// when each of its two-row subrelations does. A two-row subrelation is fully
// described by one comparison sign per attribute, which makes Pattern the
// semantic ground truth used by the implication prover (internal/prover) and
// the completeness constructions (internal/armstrong).
//
// # Rank views
//
// Checking an OD against data is "order the rows by X, scan adjacent pairs"
// (Theorem 15 reduces a violation to a split or a swap between two rows), and
// Relation does both on dense integers. Each column has a rank view: one
// int32 per row, the dense rank of that row's cell among the column's
// distinct values, so that two cells of a column compare exactly as their
// ranks do. The contract:
//
//   - Order is Value.Compare's: Null first, then Int and Float on one
//     numeric line (Int(1) and Float(1) share a rank), then String. The view
//     presumes Compare is a total preorder on the column, which it is for
//     every column free of NaN and of Int/Float mixtures beyond ±2⁵³.
//   - Per column and lazy: a view is built — the one place cell values are
//     still compared — on the first ordered use of its column; columns no
//     list mentions are never ranked.
//   - Built from the column as a typed vector. A relation made by
//     NewRelationColumns ranks the []int64, []float64 or []string it was
//     given and lays its cells out as rows of Values only on the first
//     value-level access (Row, Value, CompareOn, Project, Clone, String,
//     AddRow); one made of rows gathers an all-integer column into scratch
//     first. Either way a column of integers spanning less than four times
//     the row count is ranked through a presence table, any other sorted once.
//   - Immutable once built, so readers share a relation across goroutines
//     without locks; racing first uses converge on one published view.
//   - Dropped by AddRow. Bulk loads use NewRelationColumns or
//     NewRelationRows, which build the relation in one step and never
//     invalidate.
//   - Cut from pooled blocks, one per view, and given back by Release once
//     the ordered work on the relation is done — the server releases each
//     discovery request's relation after its pipeline — so that a service
//     building a relation per request ranks without allocating. From then
//     on every ordered operation of the relation fails with an error, its
//     cells stay readable, and a second Release does nothing; no partition
//     of it may be used after. A view a racing first use built and lost is
//     left to the collector, never pooled. A block comes back holding
//     another relation's ranks: a builder writes every rank and clears
//     only the bucket offsets it counts into.
//
// SortedIndexOn is a stable least-significant-digit counting sort over the
// views, O(|X|·(n + cardinality)) with pooled scratch, and SortPartitionOn,
// Satisfies and SatisfiesWith compare int32 ranks where they used to compare
// Values; a SortedPartition's row index is []int32. A SortCache sorts only
// the empty and the one-attribute contexts: the partition of X·A is refined
// from the partitions of X and of [A] it holds — the rows, in A's order, are
// dealt into the classes of X, and neighbours tie on X·A when they tie on X
// and on A — which is the sort's last pass alone, and shares X's arrays when
// A is constant or every class of X is one row. The tie pass (narrowTies,
// which SortPartitionOn uses for a one-attribute context too) writes every
// Tie[k] as "tied before and the same rank" with no branch on the data, and
// counts the classes as rows minus ties. The cache's hits and misses count
// the contexts callers asked for; a prefix retained on the way is neither.
// A cache fills its partitions' Index and Tie arrays, through the one sort
// routine SortPartitionOn fills fresh ones with, from a pool every cache
// shares, and Release returns each array to it once — a partition sharing
// its prefix's arrays owns none, and a concurrent miss's losing copy is
// returned when it loses — so successive discovery runs reuse their arrays.
// SatisfiesWith holds the right-hand side's rank views in an array on the
// stack and returns a refutation's witness by value, so a data check
// allocates nothing whether the OD holds or not. A SortCache keys a context
// by its columns' schema positions, not by a rendering of its names, and a
// caller that numbers its lists asks by position: GetCols returns the
// cache's own partition, with no Context and no allocation once cached, and
// CheckCols scans it against right-hand columns given by position, looking
// no name up — discovery's data checks, where Get and SatisfiesWith resolve
// names for every other caller, their contracts unchanged. An OD's String,
// and so its Key, is built in one allocation.
// CompareOn and SatisfiesNaive still read the cells directly: they are the
// definitions, and the tests hold the rank kernel — sorted and refined
// partitions, row-built and columnar relations — to them and to the
// comparator sort it replaced (rank_oracle_test.go).
package core
