package store

import (
	"errors"
	"fmt"
	"sync"
)

// ErrIngestGap reports an ingest whose byte offset or segment index does not
// continue the local log — the tailer must refetch from the follower's own
// watermark instead.
var ErrIngestGap = errors.New("store: segment ingest does not continue the local log")

// FollowerStats is a point-in-time summary of a follower store: where the
// local log stands, where the leader stood at the last poll, and what
// replication has cost so far. The counters mean the same on a durable and a
// pure-cache follower: BytesFetched counts bytes newly taken (re-sent overlap
// excluded), SegmentsSealed counts Seal and SealOpen alike. On a pure-cache
// follower Segments and WALBytes describe the open segment's fetch cursor
// only — sealed segments are not kept.
type FollowerStats struct {
	SnapshotSeq        uint64 `json:"snapshotSeq"`
	SnapshotGen        uint64 `json:"snapshotGen"`
	LastSeq            uint64 `json:"lastSeq"`
	LeaderSeq          uint64 `json:"leaderSeq"`
	LeaderGen          uint64 `json:"leaderGen"`
	Segments           int    `json:"segments"`
	WALBytes           int64  `json:"walBytes"`
	SegmentsFetched    uint64 `json:"segmentsFetched"`
	BytesFetched       uint64 `json:"bytesFetched"`
	SegmentsSealed     uint64 `json:"segmentsSealed"`
	SnapshotsInstalled uint64 `json:"snapshotsInstalled"`
}

// FollowerStore is the follower's policy on a shard's segment log: segment
// bytes fetched from a leader are ingested verbatim at the offset they were
// fetched from (same file names, same frame format, same snapshot protocol),
// so a follower's directory is byte-compatible with recovery — OpenFollower
// after a crash resumes from the local applied watermark, and the directory
// could even be opened by a normal Store to promote the replica. Opened with
// no directory it is a pure cache: the same cursor, checks and counters over
// a log that persists nothing. Unlike Store there is no group committer and
// no compactor: one tailer goroutine calls Ingest/Seal/InstallSnapshot, and
// fsync happens only at segment seal and snapshot install (follower
// durability is reconstructible from the leader, so per-ingest fsync would
// buy latency for nothing).
type FollowerStore struct {
	mu      sync.Mutex
	log     *segLog
	lastSeq uint64 // seq of the last record parsed from the local log
	snapSeq uint64
	snapGen uint64
	closed  bool

	// The leader's applied seq and generation as of the last successful poll.
	leaderSeq uint64
	leaderGen uint64

	fetches            uint64
	bytesFetched       uint64
	segmentsSealed     uint64
	snapshotsInstalled uint64
}

// OpenFollower recovers a follower store from dir (created if absent) with
// the recovery Open runs on a leader store, and returns the snapshot and the
// records after it, in log order, for the caller to rebuild its catalog
// from; the last segment (if any) stays open for further Ingest calls at its
// current size. An empty dir opens a pure-cache follower: nothing to
// recover, nothing persisted.
func OpenFollower(dir string) (*FollowerStore, Snapshot, []Record, error) {
	if dir == "" {
		return &FollowerStore{log: &segLog{}}, Snapshot{}, nil, nil
	}
	l, snap, replay, _, err := recoverShard(dir)
	if err != nil {
		return nil, Snapshot{}, nil, err
	}
	fs := &FollowerStore{log: l, snapSeq: snap.Seq, snapGen: snap.Gen, lastSeq: snap.Seq}
	if n := len(replay); n > 0 {
		fs.lastSeq = replay[n-1].Seq
	}
	return fs, snap, replay, nil
}

// Next reports where fetching should resume: the open segment's index and
// local byte size when one is open (open=true), plus the seq of the last
// locally-parsed record — the follower's watermark candidate.
func (fs *FollowerStore) Next() (index uint64, size int64, open bool, lastSeq uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.log.cur.index, fs.log.cur.size, fs.log.cur.index != 0, fs.lastSeq
}

// NoteLeader records the leader's applied seq and generation as the last
// successful poll reported them.
func (fs *FollowerStore) NoteLeader(seq, gen uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.leaderSeq, fs.leaderGen = seq, gen
}

// Ingest takes fetched segment bytes at byte offset off of segment index
// and parses the complete frames they finish, returning the newly parsed
// records in order. Offsets must continue the local bytes exactly (overlap
// with already-held bytes is tolerated and skipped; a gap is ErrIngestGap).
// Opening a NEW segment requires the previous one to have been sealed via
// Seal — the leader's log order is the only order. A complete-but-invalid
// frame returns the records parsed before it along with ErrBadFrame; the
// caller applies those, then calls TruncateTail and refetches.
func (fs *FollowerStore) Ingest(index uint64, off int64, b []byte) ([]Record, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, errors.New("store: follower store is closed")
	}
	l := fs.log
	if l.cur.index == 0 {
		if off != 0 {
			return nil, fmt.Errorf("%w: opening segment %d at offset %d", ErrIngestGap, index, off)
		}
		if index <= l.last {
			return nil, fmt.Errorf("%w: segment %d is not after segment %d", ErrIngestGap, index, l.last)
		}
		if err := l.rotate(index); err != nil {
			return nil, err
		}
	}
	if index != l.cur.index {
		return nil, fmt.Errorf("%w: got segment %d while segment %d is still open", ErrIngestGap, index, l.cur.index)
	}
	if off > l.cur.size {
		return nil, fmt.Errorf("%w: segment %d offset %d past local size %d", ErrIngestGap, index, off, l.cur.size)
	}
	fs.fetches++
	held := l.cur.size - off // a re-sent overlap: bytes of b the log already has
	if held >= int64(len(b)) {
		return nil, nil
	}
	b = b[held:]
	if err := l.write(b); err != nil {
		return nil, fmt.Errorf("store: writing fetched segment bytes: %w", err)
	}
	fs.bytesFetched += uint64(len(b))
	recs, err := l.feed(b)
	for _, rec := range recs {
		if rec.Seq > fs.lastSeq {
			fs.lastSeq = rec.Seq
		}
	}
	return recs, err
}

// TruncateTail cuts the open segment back to its last parsed frame boundary,
// discarding unparsed pending bytes — the recovery move after ErrBadFrame.
func (fs *FollowerStore) TruncateTail() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.log.truncateTail()
}

// Seal marks the open segment complete at exactly size bytes — the size the
// leader sealed it at — fsyncs and closes it. Sealing with unparsed pending
// bytes or a size mismatch is an error: a sealed follower segment must be
// byte-identical to the leader's.
func (fs *FollowerStore) Seal(index uint64, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	l := fs.log
	if index == 0 || l.cur.index != index {
		return fmt.Errorf("store: sealing segment %d which is not open", index)
	}
	if len(l.tail) > 0 {
		return fmt.Errorf("store: sealing segment %d with %d unparsed pending bytes", index, len(l.tail))
	}
	if l.cur.size != size {
		return fmt.Errorf("store: sealing segment %d at %d bytes but leader sealed it at %d", index, l.cur.size, size)
	}
	return fs.sealLocked()
}

// SealOpen unconditionally seals the open segment at its last whole frame (a
// no-op when none is open). Used when the leader has already retired the
// segment: every record the follower parsed from it is applied, so the local
// copy is complete enough, and fetching the remainder is impossible.
func (fs *FollowerStore) SealOpen() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.log.cur.index == 0 {
		return nil
	}
	return fs.sealLocked()
}

// sealLocked seals the open segment, first dropping any torn tail so
// recovery sees a clean sealed segment.
func (fs *FollowerStore) sealLocked() error {
	if err := fs.log.truncateTail(); err != nil {
		return err
	}
	if err := fs.log.rotate(0); err != nil {
		return err
	}
	fs.segmentsSealed++
	return nil
}

// InstallSnapshot durably replaces the follower's snapshot (the bootstrap
// path when the leader compacted away segments the follower still needed)
// and deletes the local segments, all of which it covers. The tailer only
// bootstraps when every unfetched record is at or below the snapshot seq, so
// local records past snap.Seq are a protocol violation, not a cleanup
// candidate. A failure part-way (the snapshot landed, a segment would not
// unlink) leaves a state a retry with the same snapshot completes.
func (fs *FollowerStore) InstallSnapshot(snap Snapshot) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return errors.New("store: follower store is closed")
	}
	if fs.lastSeq > snap.Seq {
		return fmt.Errorf("store: snapshot at seq %d does not cover local records up to %d", snap.Seq, fs.lastSeq)
	}
	l := fs.log
	if l.dir != "" {
		if err := writeSnapshot(l.dir, snap); err != nil {
			return err
		}
	}
	fs.snapSeq, fs.snapGen, fs.lastSeq = snap.Seq, snap.Gen, snap.Seq
	// Everything local is now covered; drop it all so recovery replays
	// snapshot + nothing instead of snapshot + stale prefix.
	if l.cur.index != 0 {
		if err := fs.sealLocked(); err != nil {
			return err
		}
	}
	removed, err := l.dropCovered(snap.Seq)
	if err == nil && removed > 0 {
		err = syncDir(l.dir)
	}
	if err == nil {
		fs.snapshotsInstalled++
	}
	return err
}

// Stats returns current counters as one consistent reading.
func (fs *FollowerStore) Stats() FollowerStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := FollowerStats{
		SnapshotSeq:        fs.snapSeq,
		SnapshotGen:        fs.snapGen,
		LastSeq:            fs.lastSeq,
		LeaderSeq:          fs.leaderSeq,
		LeaderGen:          fs.leaderGen,
		SegmentsFetched:    fs.fetches,
		BytesFetched:       fs.bytesFetched,
		SegmentsSealed:     fs.segmentsSealed,
		SnapshotsInstalled: fs.snapshotsInstalled,
	}
	st.Segments, st.WALBytes, _ = fs.log.totals()
	return st
}

// Close closes the open segment file, if any.
func (fs *FollowerStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	return fs.log.close()
}
