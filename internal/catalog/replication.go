package catalog

import "odlib/internal/core"

// This file holds the generation-trajectory primitives replication rests on.
// The catalog's generation is a deterministic function of its applied
// mutation history: it starts at zero and bumps exactly once per EFFECTIVE
// Apply call (one that changes the declared set). Snapshots pin the value at
// their cut seq, recovery seeds it forward with EffectiveBatches over the
// replayed suffix, and a follower replaying the leader's WAL records
// one-per-Apply therefore lands on the SAME generation number at the same
// applied seq — which is what makes "generation lag" an exact cross-process
// contract and lets clients mix verdicts from leader and replicas in one
// generation-keyed cache.

// SeedGeneration fast-forwards the catalog's generation counter to gen
// without touching the declared set. Recovery calls it after the coalesced
// replay Apply so the daemon resumes the pre-restart numbering instead of
// restarting at one. A no-op when the catalog is already at or past gen.
func (c *Catalog) SeedGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen <= c.cur.gen {
		return
	}
	// The declared set is unchanged, so every stored verdict stands; the store
	// is only restamped.
	c.verdicts.advance(gen, nil, false)
	c.refreshLocked(gen, c.cur.closure)
}

// ResetTo replaces the entire declared set with ods at generation gen — the
// snapshot-bootstrap path, when a follower's replay position was compacted
// away on the leader and it must jump to the leader's snapshot instead. The
// swap happens in place under the catalog lock, so concurrent readers keep
// proving against their own immutable pre-reset snapshots and the next read
// sees the new state. The verdict store is told both directions, exactly as a
// live Apply tells it: the net-added ODs, which stored witnesses are
// revalidated against, and whether any OD left the set, which drops the
// stored implied verdicts.
//
// On the aligned-generation trajectory a bootstrap only ever moves forward;
// if the target generation does not advance the local one but the set
// changed anyway (a diverged leader), the generation bumps locally: the
// verdict store tells a reader of the old set from a reader of the new one by
// that number alone, so it must never name two constraint sets.
func (c *Catalog) ResetTo(gen uint64, ods []core.OD) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.declared
	next := newODSet()
	var netAdded []core.OD
	for _, od := range ods {
		od = canon(od)
		if od.Trivial() {
			continue
		}
		if next.add(od) && !old.has(od) {
			netAdded = append(netAdded, od)
		}
	}
	// next = old − left + netAdded, so an OD left the set exactly when next
	// is smaller than old plus what was added.
	shrank := next.len() < old.len()+len(netAdded)
	c.declared = next
	at := c.cur.gen
	switch {
	case gen > at:
		at = gen
	case shrank || len(netAdded) > 0:
		at++
	}
	c.verdicts.advance(at, netAdded, shrank)
	c.rebuildLocked(at)
	return c.statsLocked()
}

// EffectiveBatches replays batches over base with membership bookkeeping
// only — no closure, no prover — and reports how many of them a live catalog
// would have counted as effective, i.e. how many generation bumps the same
// history produces. Recovery uses it to seed the generation after a single
// coalesced Apply: seed = snapshot generation + EffectiveBatches(snapshot
// ODs, one batch per replayed WAL record). The simulation mirrors
// ApplyEffective exactly: ODs canonicalize first, trivial ODs never declare,
// and a batch counts if any add or remove actually changed the set.
func EffectiveBatches(base []core.OD, batches [][]Mutation) uint64 {
	set := newODSet()
	for _, od := range base {
		od = canon(od)
		if !od.Trivial() {
			set.add(od)
		}
	}
	var bumps uint64
	for _, muts := range batches {
		effective := false
		for _, m := range muts {
			for _, od := range m.ODs {
				od = canon(od)
				if m.Remove {
					if set.remove(od) {
						effective = true
					}
				} else if !od.Trivial() && set.add(od) {
					effective = true
				}
			}
		}
		if effective {
			bumps++
		}
	}
	return bumps
}
