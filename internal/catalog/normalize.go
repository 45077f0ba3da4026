package catalog

import "odlib/internal/core"

// canon returns the catalog's canonical form of an OD: both sides in their
// duplicate-free normal form (sound by the Normalization axiom, OD3). Two
// declarations that differ only in repeated attributes land on the same
// catalog entry.
func canon(od core.OD) core.OD {
	return core.OD{LHS: od.LHS.Normalize(), RHS: od.RHS.Normalize()}
}

// canonView is canon for a question that is only read: a duplicate-free OD
// is its own canonical form and comes back as it is, sharing the caller's
// slices, so the tier chain canonicalizes the common question without
// allocating. Whatever keeps the result must own it (see ownOD).
func canonView(od core.OD) core.OD {
	if od.LHS.HasDuplicates() || od.RHS.HasDuplicates() {
		return canon(od)
	}
	return od
}

// ownOD copies both sides of od into one fresh backing array, for a store
// that keeps an OD past the question that carried it.
func ownOD(od core.OD) core.OD {
	n := len(od.LHS)
	buf := append(make(core.List, 0, n+len(od.RHS)), od.LHS...)
	buf = append(buf, od.RHS...)
	return core.OD{LHS: buf[:n:n], RHS: buf[n:]}
}

// Inflate expands each OD into its prefix family: X ↦ Y yields X ↦ P for
// every non-empty prefix P of Y. Each derived OD is implied by the original
// (a lexicographic order on Y refines the one on any prefix of Y), so
// inflation is sound.
//
// This is the OD-correct analogue of Hyrise's inflate_ods, which splits a
// dependency per dependent column. For FDs that per-column split is sound;
// for ODs it is not — [A] ↦ [B, C] does not imply [A] ↦ [C], because C may
// only be ordered as a tiebreaker under B — so the prefix family is the
// finest sound decomposition. The result is deduplicated and keeps only
// non-trivial ODs, in canonical sorted order.
func Inflate(ods []core.OD) []core.OD {
	set := newODSet()
	for _, od := range ods {
		for _, d := range inflateOne(canon(od)) {
			set.add(d)
		}
	}
	return set.slice()
}

// inflateOne returns the canonical non-trivial prefix family of one OD.
func inflateOne(od core.OD) []core.OD {
	out := make([]core.OD, 0, len(od.RHS))
	for i := 1; i <= len(od.RHS); i++ {
		d := core.OD{LHS: od.LHS, RHS: od.RHS.Prefix(i)}
		if !d.Trivial() {
			out = append(out, d)
		}
	}
	return out
}

// Deflate compacts an OD set for presentation: trivial ODs and exact
// duplicates are dropped, and an OD whose right side is a proper prefix of a
// sibling's (same left side) is subsumed by that sibling, reversing Inflate.
// Deflate only removes ODs that the remaining set still implies; unlike
// Hyrise's deflate_ods it never unions unrelated dependents, since
// X ↦ [B, C] is strictly stronger than X ↦ [B] together with X ↦ [C]
// reordered arbitrarily.
func Deflate(ods []core.OD) []core.OD {
	byLHS := make(map[string][]core.OD)
	set := newODSet()
	for _, od := range ods {
		od = canon(od)
		if od.Trivial() || !set.add(od) {
			continue
		}
		byLHS[od.LHS.Key()] = append(byLHS[od.LHS.Key()], od)
	}
	out := make([]core.OD, 0, set.len())
	for _, group := range byLHS {
		for _, od := range group {
			subsumed := false
			for _, other := range group {
				if len(other.RHS) > len(od.RHS) && other.RHS.HasPrefix(od.RHS) {
					subsumed = true
					break
				}
			}
			if !subsumed {
				out = append(out, od)
			}
		}
	}
	core.SortODs(out)
	return out
}
