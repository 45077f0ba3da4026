package router

import (
	"errors"
	"fmt"
	"time"

	"odlib/internal/store"
)

// This file is the router's replication surface: the leader side exports
// segment metadata and bytes for GET /segments, the follower side ingests
// them through the catalog's seq-aware entry point, one generation bump per
// record, so the catalog generation tracks the leader's exactly (see
// catalog/replication.go).

// ShardSegments is one shard's shippable state as the leader reports it:
// the applied watermark and generation, the last durable snapshot cut (each
// pair read as one value, so it pairs), and the live segments.
type ShardSegments struct {
	AppliedSeq  uint64              `json:"appliedSeq"`
	Generation  uint64              `json:"generation"`
	SnapshotSeq uint64              `json:"snapshotSeq"`
	SnapshotGen uint64              `json:"snapshotGen"`
	Segments    []store.SegmentInfo `json:"segments"`
}

// SegmentState reports every durable shard's shippable state, keyed by shard
// name — the body of GET /segments. Ephemeral shards have no log to ship and
// are omitted.
func (r *Router) SegmentState() map[string]ShardSegments {
	out := make(map[string]ShardSegments)
	for _, name := range r.ShardNames() {
		sh := r.shard(name)
		if sh == nil || sh.st == nil {
			continue
		}
		seq, gen, _ := sh.cat.Applied()
		snapSeq, snapGen := sh.st.SnapshotGen()
		out[name] = ShardSegments{
			AppliedSeq:  seq,
			Generation:  gen,
			SnapshotSeq: snapSeq,
			SnapshotGen: snapGen,
			Segments:    sh.st.SegmentInfos(),
		}
	}
	return out
}

// ReadSegment serves raw bytes of one WAL segment for a follower fetch.
// Absent or ephemeral shards, and compacted-away indexes, answer
// store.ErrNoSegment — the follower's cue to re-poll the metadata.
func (r *Router) ReadSegment(schema string, index uint64, off, maxBytes int64) ([]byte, store.SegmentInfo, error) {
	if err := ValidSchema(schema); err != nil {
		return nil, store.SegmentInfo{}, err
	}
	sh := r.shard(schema)
	if sh == nil || sh.st == nil {
		return nil, store.SegmentInfo{}, fmt.Errorf("%w: shard %q has no log", store.ErrNoSegment, schema)
	}
	return sh.st.ReadSegmentAt(index, off, maxBytes)
}

// SegmentSnapshot serves a shard's current durable snapshot for replica
// bootstrap; ok is false when none has been written yet.
func (r *Router) SegmentSnapshot(schema string) (store.Snapshot, bool, error) {
	if err := ValidSchema(schema); err != nil {
		return store.Snapshot{}, false, err
	}
	sh := r.shard(schema)
	if sh == nil || sh.st == nil {
		return store.Snapshot{}, false, nil
	}
	return sh.st.SnapshotFile()
}

// ---- follower side ----

// ReplicaStatus is one follower shard's replication position: where it is,
// where the leader was at the last successful poll, and the lag between the
// two in both records and generations. Because follower generations align
// numerically with the leader's at the same applied seq, LagGenerations is
// exact, not an estimate.
type ReplicaStatus struct {
	AppliedSeq       uint64 `json:"appliedSeq"`
	Generation       uint64 `json:"generation"`
	LeaderSeq        uint64 `json:"leaderSeq"`
	LeaderGeneration uint64 `json:"leaderGeneration"`
	LagRecords       uint64 `json:"lagRecords"`
	LagGenerations   uint64 `json:"lagGenerations"`
	SegmentsFetched  uint64 `json:"segmentsFetched"`
	BytesFetched     uint64 `json:"bytesFetched"`
	SegmentsSealed   uint64 `json:"segmentsSealed"`
	Bootstraps       uint64 `json:"bootstraps"`
}

// PollStatus is the follower-wide tailer heartbeat.
type PollStatus struct {
	Synced     bool      `json:"synced"`
	LastPoll   time.Time `json:"lastPoll"`
	Polls      uint64    `json:"polls"`
	PollErrors uint64    `json:"pollErrors"`
	LastError  string    `json:"lastError,omitempty"`
}

// IsFollower reports whether this router replays a leader instead of
// accepting writes.
func (r *Router) IsFollower() bool { return r.opt.Follower }

// NotePoll records the outcome of one tailer poll pass against the leader.
func (r *Router) NotePoll(err error) {
	r.pollMu.Lock()
	defer r.pollMu.Unlock()
	r.polls++
	if err != nil {
		r.pollErrors++
		r.lastPollErr = err.Error()
		return
	}
	r.lastPoll = time.Now()
	r.lastPollErr = ""
}

// Poll reports the tailer heartbeat.
func (r *Router) Poll() PollStatus {
	r.pollMu.Lock()
	defer r.pollMu.Unlock()
	return PollStatus{
		Synced:     !r.lastPoll.IsZero(),
		LastPoll:   r.lastPoll,
		Polls:      r.polls,
		PollErrors: r.pollErrors,
		LastError:  r.lastPollErr,
	}
}

// NoteLeader records a shard's position as the leader reported it on the
// last successful poll, creating the follower shard on first sight so every
// leader shard exists locally once a poll has succeeded.
func (r *Router) NoteLeader(schema string, leaderSeq, leaderGen uint64) error {
	if !r.opt.Follower {
		return fmt.Errorf("router: NoteLeader on a non-follower router")
	}
	sh, err := r.openShard(schema)
	if err != nil {
		return err
	}
	sh.fs.NoteLeader(leaderSeq, leaderGen)
	return nil
}

// replicaStatus assembles one shard's ReplicaStatus: the applied position
// from the catalog side, the leader's position and the fetch counters from
// the follower store, which keeps them the same way with or without a
// directory.
func (r *Router) replicaStatus(sh *Shard) ReplicaStatus {
	applied, gen, _ := sh.cat.Applied()
	fst := sh.fs.Stats()
	rs := ReplicaStatus{
		AppliedSeq:       applied,
		Generation:       gen,
		LeaderSeq:        fst.LeaderSeq,
		LeaderGeneration: fst.LeaderGen,
		SegmentsFetched:  fst.SegmentsFetched,
		BytesFetched:     fst.BytesFetched,
		SegmentsSealed:   fst.SegmentsSealed,
		Bootstraps:       fst.SnapshotsInstalled,
	}
	// The follower can transiently run AHEAD of the last-polled leader
	// numbers (bytes already shipped for records the poll predates); lag
	// clamps at zero rather than wrapping.
	if rs.LeaderSeq > applied {
		rs.LagRecords = rs.LeaderSeq - applied
	}
	if rs.LeaderGeneration > gen {
		rs.LagGenerations = rs.LeaderGeneration - gen
	}
	return rs
}

// ReplicaStatuses reports every follower shard's replication position, keyed
// by shard name — the cheap read telemetry collectors scrape.
func (r *Router) ReplicaStatuses() map[string]ReplicaStatus {
	out := make(map[string]ReplicaStatus)
	if !r.opt.Follower {
		return out
	}
	for _, name := range r.ShardNames() {
		if sh := r.shard(name); sh != nil {
			out[name] = r.replicaStatus(sh)
		}
	}
	return out
}

// CheckReadLag enforces the follower staleness bound for one shard's reads.
// maxLag tightens the configured bound for this one call (a client-supplied
// requirement); zero means "use the configured bound alone". Nil on leaders,
// and on followers within bound. The error is IsLagExceeded and names the
// numbers, so a refused client knows exactly how far behind the replica was.
func (r *Router) CheckReadLag(schema string, maxLag int) error {
	if !r.opt.Follower {
		return nil
	}
	bound := r.opt.MaxLagRecords
	if maxLag > 0 && (bound == 0 || maxLag < bound) {
		bound = maxLag
	}
	if bound <= 0 {
		return nil
	}
	r.pollMu.Lock()
	synced := !r.lastPoll.IsZero()
	r.pollMu.Unlock()
	if !synced {
		return fmt.Errorf("router: %w: follower has never synced with its leader", errLag)
	}
	sh := r.shard(schema)
	if sh == nil {
		// Synced and the leader reported no such shard: an empty answer is
		// the leader's answer too.
		return nil
	}
	rs := r.replicaStatus(sh)
	if rs.LagRecords > uint64(bound) {
		return fmt.Errorf("router: %w: shard %q is %d records (%d generations) behind the leader (bound %d)",
			errLag, sh.name, rs.LagRecords, rs.LagGenerations, bound)
	}
	return nil
}

// FollowerIngest feeds fetched segment bytes into a follower shard: take
// them into the shard's log, parse the frames they complete, and apply the
// parsed records to the catalog as one group, as the leader's committer
// applies its own, returning how many newly applied. Records at or below
// the watermark (refetch overlap, or records a bootstrap snapshot already
// covers) are skipped; a gap above it is a hard error — the tailer must
// never paper over missing acknowledged history. A store.ErrBadFrame
// return means the local tail was truncated back to the last good frame;
// the good records before it HAVE been applied, and the caller refetches
// from the new local size.
func (r *Router) FollowerIngest(schema string, index uint64, off int64, b []byte) (applied int, err error) {
	if !r.opt.Follower {
		return 0, fmt.Errorf("router: FollowerIngest on a non-follower router")
	}
	sh, err := r.openShard(schema)
	if err != nil {
		return 0, err
	}
	recs, ingestErr := sh.fs.Ingest(index, off, b)
	if ingestErr != nil && len(recs) == 0 && !isBadFrame(ingestErr) {
		return 0, ingestErr
	}
	// The tailer is the shard's only applier, so the watermarks read before
	// and after the group bracket exactly what it applied.
	before, _, _ := sh.cat.Applied()
	_, _, applyErr := applyRecords(sh.cat, recs)
	after, _, _ := sh.cat.Applied()
	if applyErr != nil {
		return int(after - before), fmt.Errorf("router: follower shard %q segment %d: %w", sh.name, index, applyErr)
	}
	if isBadFrame(ingestErr) {
		// Drop the poisoned tail so the next fetch resumes at a frame
		// boundary with clean bytes.
		if terr := sh.fs.TruncateTail(); terr != nil {
			return int(after - before), terr
		}
	}
	return int(after - before), ingestErr
}

func isBadFrame(err error) bool {
	return err != nil && errors.Is(err, store.ErrBadFrame)
}

// FollowerNext reports where fetching should resume for a shard: the open
// segment and its local size when one is open, plus the applied watermark.
func (r *Router) FollowerNext(schema string) (index uint64, size int64, open bool, watermark uint64) {
	sh := r.shard(schema)
	if sh == nil || sh.fs == nil {
		return 0, 0, false, 0
	}
	watermark, _, _ = sh.cat.Applied()
	index, size, open, _ = sh.fs.Next()
	return index, size, open, watermark
}

// FollowerSeal marks a shard's open segment complete at the leader's sealed
// size (byte-for-byte identical by construction).
func (r *Router) FollowerSeal(schema string, index uint64, size int64) error {
	sh := r.shard(schema)
	if sh == nil || sh.fs == nil {
		return fmt.Errorf("router: sealing segment on unknown follower shard %q", schema)
	}
	return sh.fs.Seal(index, size)
}

// FollowerSealOpen retires a shard's open segment at its current size — the
// move when the leader has already compacted that segment away, so its
// remaining bytes can never be fetched (every parsed record is applied, and
// the unapplied remainder is covered by the snapshot about to install).
func (r *Router) FollowerSealOpen(schema string) error {
	sh := r.shard(schema)
	if sh == nil || sh.fs == nil {
		return nil
	}
	return sh.fs.SealOpen()
}

// FollowerBootstrap jumps a follower shard to a leader snapshot: install it
// durably (dropping covered local segments), reset the catalog to the
// snapshot's declared set at the snapshot's generation, and advance the
// watermark to its seq. The replay path after a bootstrap continues from
// snap.Seq+1 as if the follower had applied every record up to the cut. A
// snapshot older than the watermark is refused — bootstrapping backwards
// would re-serve withdrawn history.
func (r *Router) FollowerBootstrap(schema string, snap store.Snapshot) error {
	if !r.opt.Follower {
		return fmt.Errorf("router: FollowerBootstrap on a non-follower router")
	}
	sh, err := r.openShard(schema)
	if err != nil {
		return err
	}
	// The follower store has parsed every record the catalog applied, so it
	// refuses a snapshot behind the watermark before it installs anything;
	// the catalog refuses one again under its own lock.
	if err := sh.fs.InstallSnapshot(snap); err != nil {
		return err
	}
	return sh.cat.ResetLogged(snap.Seq, snap.Gen, snap.ODs)
}
