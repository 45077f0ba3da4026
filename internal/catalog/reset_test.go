package catalog

import "odlib/internal/core"

// ResetTo is ResetLogged without a log: the applied seq stays where it is.
// The generation and verdict-store tests reset through it.
func (c *Catalog) ResetTo(gen uint64, ods []core.OD) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked(c.cur.seq, gen, ods)
	return c.statsLocked()
}

// Replay is ApplyLogged without seqs: each batch that changes the declared
// set bumps the generation once, exactly as one Apply per batch would, while
// the whole history takes one lock acquisition and one closure refresh.
func (c *Catalog) Replay(batches [][]Mutation) Stats {
	_, _, _, _, st := c.apply(batches)
	return st
}
