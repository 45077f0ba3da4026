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
//   - Cut from a Scratch's arenas when the relation was built on one
//     (below), made otherwise.
//
// SortedIndexOn is a stable least-significant-digit counting sort over the
// views, O(|X|·(n + cardinality)) on reused buffers, and SortPartitionOn,
// Satisfies and SatisfiesWith compare int32 ranks where they used to compare
// Values; a SortedPartition's row index is []int32. A SortCache sorts only
// the empty and the one-attribute contexts: the partition of X·A is refined
// from the partitions of X and of [A] it holds — the rows, in A's order, are
// dealt into the classes of X, and neighbours tie on X·A when they tie on X
// and on A — which is the sort's last pass alone, and shares X's arrays when
// A is constant or every class of X is one row. The tie pass (narrowTies)
// writes every Tie[k] as "tied before and the same rank" with no branch on
// the data, and counts the classes as rows minus ties. A one-attribute
// context, for the cache and SortPartitionOn alike, is one counting pass:
// rows 0..n-1 are dealt into the column's rank buckets (the view's start
// offsets) straight into Index, every Tie is set but at a bucket's last row,
// and Groups is the column's cardinality. The cache's hits and misses count
// the contexts callers asked for; a prefix retained on the way is neither.
//
// A discovery level asks a context once for all its right-hand sides
// (CheckGroup), and most candidates on data fail — one split or swap refutes
// one — so before it refines X·A the cache probes it: it lays out a prefix of
// X·A's order, whole classes of X taken in X's order, each sorted by A's rank
// with ties in row order (the order refine deals them into), neighbours tied
// when in one class with one rank of A, and scans every candidate over it.
// A class with at least as many rows as A has values is sorted by counting
// its rows per rank of A and dealing them, in X's order, into the buckets; a
// smaller one, where clearing A's buckets would cost more than its rows, by
// comparing rank<<32|row keys, and only those rows count as compared.
// That prefix and its ties are the first rows of the order and their ties,
// and a scan reports the first violating adjacent pair, so a violation the
// prefix shows is the first of the whole order, of the same kind. When every
// candidate is refuted the context is decided, unbuilt and still counted as
// asked; otherwise the context is refined and only the undecided candidates
// are scanned on, from the prefix's last row. The probe is bounded: 32 rows
// at first, four times more each step, never past a 16th of the relation;
// it skips a context whose refinement would share X's arrays, and a context
// whose group was answered over its whole order once is not probed again.
// Its buffers are the sort scratch's, its bookkeeping is the cache table's,
// and whether a context is probed follows only from that context's own asks,
// so it does not follow the schedule. On a relation where nothing holds
// (4,000 random rows over 6 attributes) every two-attribute context is
// decided on a prefix and none is refined.
//
// Both counting paths rest on one invariant: every partition keeps the rows
// of each of its classes in row order. The one-attribute pass deals rows in
// row order; the empty context is the identity; refine deals [A]'s order,
// whose ties are in row order, into X's classes, and a shared partition is
// its prefix's. So a stable pass over a class in X's order leaves A's ties in
// row order, as the keys' row half did, and the order is the same, byte for
// byte, whichever way a class was sorted (TestProbeSortsBothWays checks the
// invariant and both paths).
//
// KernelStats counts that physical work — rows refined, sorted, probed,
// compared and scanned, rank views built — once per published partition,
// check and view, so a run's counts depend on its input alone, beside the
// logical counts discovery reports.
// A cache cuts its partitions' Index and Tie arrays from arenas of its own
// and fills them through the one sort routine SortPartitionOn fills fresh
// ones with; its Release resets the arenas, so successive discovery runs
// reuse their arrays.
// SatisfiesWith holds the right-hand side's rank views in an array on the
// stack and returns a refutation's witness by value, so a data check
// allocates nothing whether the OD holds or not; its scan holds the rank
// slices of a one-, two- or three-attribute right-hand side in registers and
// carries the previous row's ranks, and compares longer sides column by
// column. A SortCache keys a context
// by its columns' schema positions, not by a rendering of its names, and a
// caller that numbers its lists asks by position: GetCols returns the
// cache's own partition, with no Context and no allocation once cached, and
// CheckCols scans it against right-hand columns given by position, looking
// no name up — discovery's data checks, where Get and SatisfiesWith resolve
// names for every other caller, their contracts unchanged. An OD's String,
// and so its Key, is built in one allocation.
//
// # Scratch
//
// Every buffer the ordered work on a relation reuses is a Scratch's: the
// rank views of a relation built on it, one sort scratch per concurrent
// sorter, a SortCache whole, and for the server and discover the request
// body, the integer cells and the run block. Each buffer has one owner,
// which resets the arenas it cuts from at its Release — the scratch its
// cells and views, a SortCache its table's — and a reset after cuts that
// outgrew the slab makes one slab of exactly their size, so a warm run
// allocates nothing. Only the sort scratch, which lives for one call, keeps
// a free list. A server takes one scratch per request from the free list
// (TakeScratch, a mutex-guarded stack of at most GOMAXPROCS, no sync.Pool,
// so allocation counts read the same under the race detector), builds the
// relation on it and releases it once, which ends the relation's ordered
// work. A relation built on none makes its views, its Release only marks
// them released, and its ordered work borrows a scratch from the free list.
// After Release ordered operations fail and cells stay readable. A released
// scratch is kept, in place of the longest kept when the list is full,
// unless it holds more than maxRetained. A cut comes back holding another
// relation's data: builders overwrite what they read, and clear the bucket
// offsets they count into. In the scratchcheck build a reset fills the slab
// with poison, as Release does the body and giving a sort scratch back its
// buffers, and a scratch handed out twice panics.
//
// CompareOn and SatisfiesNaive still read the cells directly: they are the
// definitions, and the tests hold the rank kernel — sorted and refined
// partitions, row-built and columnar relations — to them and to the
// comparator sort it replaced (rank_oracle_test.go).
package core
