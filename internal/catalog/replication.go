package catalog

import (
	"fmt"

	"odlib/internal/core"
)

// This file holds the entry points replication and recovery rest on. The
// catalog's generation is a deterministic function of its applied mutation
// history: it starts at zero and bumps exactly once per batch that changes
// the declared set, a rule written once, in the apply loop. A snapshot pins
// the value at its cut seq; recovery lands on it with ResetLogged and
// replays the suffix with ApplyLogged, one batch per WAL record, through
// that same loop, as the leader's committer and a follower's ingest apply
// each group of records. Each therefore reaches the SAME generation number
// at the same applied seq — which is what makes "generation lag" an exact
// cross-process contract and lets clients mix verdicts from leader and
// replicas in one generation-keyed cache.

// Logged is one WAL record as the catalog applies it.
type Logged struct {
	Seq  uint64
	Muts []Mutation
}

// ApplyLogged applies WAL records in seq order as one group: one lock and
// one closure refresh, one generation bump per record that changes the
// declared set, and the last record's seq published as the applied seq.
// Records at or below the applied seq are skipped (a refetch overlap, or
// history a snapshot covers); a record past the next seq is a gap, refused
// with the records before it applied. effects[i] is recs[i]'s own effect.
func (c *Catalog) ApplyLogged(recs []Logged) (effects []Effect, st Stats, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	effects = make([]Effect, len(recs))
	at, lo := c.cur.seq, 0
	for lo < len(recs) && recs[lo].Seq <= at {
		lo++
	}
	batches := make([][]Mutation, 0, len(recs)-lo)
	for _, rec := range recs[lo:] {
		if rec.Seq != at+1 {
			err = fmt.Errorf("catalog: record gap: applied through seq %d, next record is %d", at, rec.Seq)
			break
		}
		batches = append(batches, rec.Muts)
		at++
	}
	if len(batches) > 0 {
		c.applyLocked(at, batches, effects[lo:lo+len(batches)])
	}
	return effects, c.statsLocked(), err
}

// Applied reports the applied seq, generation and declared set of one
// published state — a shard compactor's store.Source. The slice is shared:
// never modify it.
func (c *Catalog) Applied() (seq, gen uint64, declared []core.OD) {
	g := c.snapshot()
	return g.seq, g.gen, g.declared
}

// ResetLogged replaces the entire declared set with ods at generation gen
// and makes seq, the snapshot's cut, the applied seq: recovery's first step,
// and a follower's bootstrap when its replay position was compacted away on
// the leader. A snapshot behind the applied seq is refused — it would
// re-serve withdrawn history. The swap happens in place under the catalog
// lock, so concurrent readers keep proving against their own immutable
// pre-reset snapshots and the next read sees the new state. The verdict
// store is told both directions, exactly as a live Apply tells it: the
// net-added ODs, which stored witnesses are revalidated against, and whether
// any OD left the set, which drops the stored implied verdicts.
//
// On the aligned-generation trajectory a bootstrap only ever moves forward;
// if the target generation does not advance the local one but the set
// changed anyway (a diverged leader, or recovery from a pre-generation
// snapshot whose Gen is zero), the generation bumps locally: the verdict
// store tells a reader of the old set from a reader of the new one by that
// number alone, so it must never name two constraint sets. Over an unchanged
// set a forward gen only renumbers, and every stored verdict stands.
func (c *Catalog) ResetLogged(seq, gen uint64, ods []core.OD) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < c.cur.seq {
		return fmt.Errorf("catalog: snapshot at seq %d is behind the applied seq %d", seq, c.cur.seq)
	}
	c.resetLocked(seq, gen, ods)
	return nil
}

func (c *Catalog) resetLocked(seq, gen uint64, ods []core.OD) {
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
	c.rebuildLocked(seq, at)
}
