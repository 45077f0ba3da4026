package catalog

import "odlib/internal/core"

// odSet is a hash set of ODs, bucketed by core.OD.Hash with core.OD.Equal
// resolving collisions — the same hash()/operator== discipline Hyrise uses
// for its unordered_set<OrderDependency>. It is not safe for concurrent use;
// the Catalog guards it.
type odSet struct {
	buckets map[uint64][]core.OD
	n       int
}

func newODSet() *odSet {
	return &odSet{buckets: make(map[uint64][]core.OD)}
}

// has reports membership of od.
func (s *odSet) has(od core.OD) bool {
	for _, b := range s.buckets[od.Hash()] {
		if b.Equal(od) {
			return true
		}
	}
	return false
}

// add inserts od, reporting whether it was new.
func (s *odSet) add(od core.OD) bool {
	h := od.Hash()
	for _, b := range s.buckets[h] {
		if b.Equal(od) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], od)
	s.n++
	return true
}

// remove deletes od, reporting whether it was present.
func (s *odSet) remove(od core.OD) bool {
	h := od.Hash()
	bucket := s.buckets[h]
	for i, b := range bucket {
		if b.Equal(od) {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(s.buckets, h)
			} else {
				s.buckets[h] = bucket
			}
			s.n--
			return true
		}
	}
	return false
}

// len returns the number of ODs in the set.
func (s *odSet) len() int { return s.n }

// unordered returns the ODs in no particular order (the map's), for the
// set-to-set plumbing whose result is a set whatever order it was fed in.
func (s *odSet) unordered() []core.OD {
	out := make([]core.OD, 0, s.n)
	for _, bucket := range s.buckets {
		out = append(out, bucket...)
	}
	return out
}

// slice returns the ODs in canonical sorted order, for what is listed.
func (s *odSet) slice() []core.OD {
	out := s.unordered()
	core.SortODs(out)
	return out
}
