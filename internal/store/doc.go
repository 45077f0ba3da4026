// Package store is the durability subsystem of the OD constraint catalog: a
// segmented append-only write-ahead log of declare/remove records plus
// background-compacted snapshots of the declared set, giving a catalog shard
// crash recovery with no lost acknowledged mutation — and no snapshot I/O on
// the writer path.
//
// The paper treats declared ODs as schema constraints a DBMS consults on
// every query (Sections 2.3 and 6); a constraint catalog that evaporates on
// restart cannot play that role. The layout per shard directory:
//
//	wal-000001.log  length-prefixed JSON frames, one per mutation batch
//	wal-000002.log  … appends go to the highest-index (active) segment
//	snapshot.json   latest snapshot {seq, ods}, replaced by atomic rename
//
// A directory that still holds the single-file wal.log of a pre-segment
// release is refused at open: it is no longer read, and opening around it
// would silently ignore acknowledged records.
//
// One unexported primitive, segLog, owns everything about segments: their
// names, the recovery scan and its torn-tail rule, how bytes reach the open
// segment, what sealing guarantees (fsync + close + directory fsync), the
// truncation back to a frame boundary, the deletion of snapshot-covered
// segments and the SegmentInfo listing. Two policies sit on it:
//
//   - Store, the leader: it numbers the records, group-commits them and
//     rotates at the size/record thresholds and when a snapshot covers the
//     open segment. One mutex guards all of that bookkeeping; a second, ioMu,
//     keeps the committer, the compactor's rotation and Close from
//     interleaving file I/O on the open segment.
//   - FollowerStore, the follower: ingests bytes a leader already framed, at
//     the offset they were fetched from. Opened with a directory it is
//     durable; without one (OpenFollower("")) it is a pure cache — the same
//     ingest protocol, cursor and counters over a segLog that persists
//     nothing.
//
// Open and OpenFollower share one recovery (recoverShard), and recovery and
// replication share one frame decoder (DecodeFrames): a segment is recovered
// by feeding its bytes, in bounded chunks, through the loop that ingests
// fetched bytes.
//
// Frame format: 4-byte little-endian payload length, 4-byte little-endian
// CRC32 (IEEE) of the payload, then the JSON payload. The active segment
// seals and rotates at a size/record threshold; sealed segments are
// immutable, and sealing always fsyncs (even with per-commit fsync off) so
// the hard errors below are sound. On open the segments are scanned in log
// order; a short, corrupt or CRC-mismatched frame in the LAST segment marks
// a torn tail — truncated
// away, the prefix-consistency a crashed group commit can leave behind — but
// the same damage mid-log, or a sequence gap past the snapshot (a missing
// middle segment), is a hard error: acknowledged records are gone and
// recovering around the hole would serve a state that never existed.
//
// Appends are acknowledged through a group-commit goroutine: writers stage
// frames into the current batch and wait; the committer writes the whole
// batch with one write syscall and (when enabled) one fsync, hands its
// records in seq order to the Applier the owner registered (OnCommit), then
// releases every waiter. Under concurrent load the fsync and the apply
// amortize across all writers of a batch. A mutation is acknowledged to
// clients only after its batch is durable and published.
//
// Compaction runs on a dedicated goroutine per store, nudged every
// SnapshotEvery records or synchronously via CompactNow: it reads the
// durably-applied state from the Source the owner registered
// (StartCompactor), writes the snapshot via temp-file + atomic rename, and
// deletes the sealed segments the snapshot fully covers (rotating the
// active segment first when it, too, is covered). Writers never wait on any
// of it — the old design serialized a full snapshot write inside the apply
// path, stalling every later writer on the shard. CompactNow first waits for
// every record staged before it to commit and publish.
package store
