package discover

import (
	"fmt"
	"slices"

	"odlib/internal/catalog"
	"odlib/internal/core"
)

// Options bounds the search.
type Options struct {
	// MaxLHS and MaxRHS bound the list lengths of candidate ODs; zero
	// selects 2.
	MaxLHS, MaxRHS int
	// MaxAttrs guards against factorial candidate explosions; zero selects 7.
	MaxAttrs int
	// KeepRedundant retains ODs implied by earlier findings instead of
	// minimizing.
	KeepRedundant bool
}

func (o *Options) defaults() {
	if o.MaxLHS <= 0 {
		o.MaxLHS = 2
	}
	if o.MaxRHS <= 0 {
		o.MaxRHS = 2
	}
	if o.MaxAttrs <= 0 {
		o.MaxAttrs = 7
	}
}

// maxCandidates bounds the candidate space — left-hand lists times right-hand
// lists. The pipeline keeps one byte of refutation state per pair, and a
// space this large is hours of inference besides.
const maxCandidates = 1 << 24

// CheckSize reports whether a relation of n attributes is within the bounds:
// the MaxAttrs guard, and the candidate space MaxLHS and MaxRHS span over n
// attributes. It returns the error Discover and Pipeline refuse the relation
// with, for callers that must refuse before they start.
func (o Options) CheckSize(n int) error {
	o.defaults()
	if n > o.MaxAttrs {
		return fmt.Errorf("discover: %d attributes exceed the limit of %d", n, o.MaxAttrs)
	}
	lhs, rhs := listCount(n, o.MaxLHS), listCount(n, o.MaxRHS)
	if lhs*rhs > maxCandidates {
		return fmt.Errorf("discover: lists of up to %d and %d of %d attributes span more than %d candidates",
			o.MaxLHS, o.MaxRHS, n, maxCandidates)
	}
	return nil
}

// listCount returns the number of duplicate-free lists of at most maxLen out
// of n attributes, saturating just past maxCandidates.
func listCount(n, maxLen int) int {
	count, ofLen := 1, 1
	for k := 0; k < min(maxLen, n) && count <= maxCandidates; k++ {
		ofLen *= n - k
		count += ofLen
	}
	return min(count, maxCandidates+1)
}

// Result holds the discovery outcome.
type Result struct {
	Constants   core.List // attributes with a single value in the instance, in name order
	ODs         []core.OD // discovered dependencies (minimal unless KeepRedundant)
	Candidates  int       // candidates enumerated
	DataChecks  int       // candidates validated against the data
	RowsScanned int64     // full-relation passes × rows, across sorts and scans
}

// Discover infers the ODs of the instance within the option bounds. It is
// the reference Pipeline is tested against, and no product path runs it:
// candidates are enumerated shortest-first and each one is either pruned by
// implication from the ODs found so far — maintained incrementally in a
// catalog, never a from-scratch prover rebuild — or validated against the
// data with a fresh sort-and-scan. Level 1 is [] ↦ [A] for every A, so the
// constants are the first ODs found.
func Discover(r *core.Relation, opts Options) (*Result, error) {
	opts.defaults()
	attrs := r.Attrs()
	if err := opts.CheckSize(len(attrs)); err != nil {
		return nil, err
	}
	res := &Result{}

	lhsLists := enumerateLists(attrs, opts.MaxLHS)
	rhsLists := enumerateLists(attrs, opts.MaxRHS)

	// Level-wise: shorter candidates first, so minimization prefers small
	// generators; within a size, canonical order.
	bySize := make([][]core.OD, opts.MaxLHS+opts.MaxRHS+1)
	for _, lhs := range lhsLists {
		for _, rhs := range rhsLists {
			od := core.NewOD(lhs, rhs)
			if od.Trivial() {
				continue
			}
			size := len(lhs) + len(rhs)
			bySize[size] = append(bySize[size], od)
		}
	}

	// The found set lives in a catalog: each acceptance extends the closure
	// incrementally and invalidates only the memo, instead of rebuilding a
	// prover over the whole set per acceptance. KeepRedundant asks it
	// nothing, so that run keeps none.
	var cat *catalog.Catalog
	if !opts.KeepRedundant {
		cat = catalog.New(catalog.WithMaxAttrs(len(attrs) + 1))
	}
	for _, cands := range bySize {
		core.SortODs(cands)
		for _, od := range cands {
			res.Candidates++
			if cat != nil {
				implied, err := cat.Implies(od)
				if err != nil {
					return nil, err
				}
				if implied {
					continue
				}
			}
			res.DataChecks++
			res.RowsScanned += 2 * int64(r.Len()) // one sort pass, one scan pass
			holds, _, err := r.Satisfies(od)
			if err != nil {
				return nil, err
			}
			if !holds {
				continue
			}
			res.ODs = append(res.ODs, od)
			if cat != nil {
				cat.Add(od)
			}
		}
	}
	res.Constants = constantsOf(res.ODs)
	return res, nil
}

// constantsOf returns, in name order, the attributes the ODs hold constant
// (Definition 18's semantic counterpart): those of the level-1 ODs [] ↦ [A].
func constantsOf(ods []core.OD) core.List {
	var out core.List
	for _, od := range ods {
		if od.LHS.Empty() && len(od.RHS) == 1 {
			out = append(out, od.RHS[0])
		}
	}
	slices.Sort(out)
	return out
}

// CompatiblePairs returns the unordered attribute pairs that are order
// compatible in the instance — the swap-free pairs, the raw material of the
// paper's completeness construction.
func CompatiblePairs(r *core.Relation) ([][2]core.Attribute, error) {
	attrs := r.Attrs()
	var out [][2]core.Attribute
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			ok, _, err := r.OrderCompatible(core.List{attrs[i]}, core.List{attrs[j]})
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, [2]core.Attribute{attrs[i], attrs[j]})
			}
		}
	}
	return out, nil
}

// enumerateLists yields all duplicate-free lists of length 0..maxLen over
// the attributes, in the pipeline lattice's id order.
func enumerateLists(attrs core.List, maxLen int) []core.List {
	return newLattice(attrs, maxLen, 0).lists
}
