package catalog

import "odlib/internal/core"

// This file holds the two entry points replication and recovery rest on.
// The catalog's generation is a deterministic function of its applied
// mutation history: it starts at zero and bumps exactly once per batch that
// changes the declared set, a rule written once, in the apply loop. A
// snapshot pins the value at its cut seq; recovery lands on it with ResetTo
// and replays the suffix through that same loop with Replay, one batch per
// WAL record; a follower replaying the leader's WAL one Apply per record
// walks the same loop too. Each therefore reaches the SAME generation number
// at the same applied seq — which is what makes "generation lag" an exact
// cross-process contract and lets clients mix verdicts from leader and
// replicas in one generation-keyed cache.

// Replay applies a recovered history, one batch per WAL record, through the
// loop Apply runs: each batch that changes the declared set bumps the
// generation once, exactly as one Apply per batch would, while the whole
// history takes one lock acquisition and one closure refresh — recovery
// speed. Nothing is re-logged.
func (c *Catalog) Replay(batches [][]Mutation) Stats {
	_, _, _, _, st := c.apply(batches)
	return st
}

// ResetTo replaces the entire declared set with ods at generation gen — the
// first step of recovery, which lands on a snapshot before Replay, and the
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
// changed anyway (a diverged leader, or recovery from a pre-generation
// snapshot whose Gen is zero), the generation bumps locally: the verdict
// store tells a reader of the old set from a reader of the new one by that
// number alone, so it must never name two constraint sets. Over an unchanged
// set a forward gen only renumbers, and every stored verdict stands.
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
