// Package replica tails a leader odserve over HTTP and replays its WAL into
// a follower router — the read-scaling half of segment-shipping replication.
//
// The tailer polls GET /segments for every shard's applied watermark,
// generation and live segment list, then fetches segment bytes with plain
// ranged reads (GET /segments/{shard}/{n}?offset=...) and feeds them to the
// follower router, which takes them into the shard's store.FollowerStore
// (persisted when the follower has a data dir, parsed and dropped when it is
// a pure cache — one code path either way), CRC-verifies frames, and
// applies each record to its catalog with the same
// one-record-one-Apply discipline as the leader's live path — so the
// follower's generation is numerically the leader's at the same applied seq,
// and "generation lag" is an exact, observable contract rather than an
// estimate.
//
// Fetches resume from the follower's local byte size, so a torn fetch (a
// connection cut mid-body) costs nothing but the missing bytes; a CRC-bad
// frame truncates back to the last good frame boundary and refetches. When
// the leader has compacted away a segment the follower still needs, the
// tailer falls back to snapshot bootstrap: install the leader's snapshot,
// reset the catalog to it at the snapshot's generation, and resume tailing
// from its seq. Transport errors back off exponentially and never wedge the
// follower — it keeps serving reads at its last applied state, reporting its
// lag, and refusing proves only when a configured staleness bound says so.
package replica
