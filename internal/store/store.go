package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"odlib/internal/core"
)

// DefaultSegmentBytes is the size at which an active WAL segment seals and
// rotates when Options.SegmentBytes is zero. Large enough that steady
// interactive traffic rarely rotates, small enough that a compaction after
// a declare burst reclaims disk in file-sized steps.
const DefaultSegmentBytes = 4 << 20

// Options configures a shard store.
type Options struct {
	// Fsync makes every group commit fsync before acknowledging. Disabling
	// it trades crash durability (not consistency — recovery still truncates
	// to a valid prefix) for throughput. Segment seals, snapshots and
	// recovery-time truncations always fsync regardless: sealed segments
	// must survive power loss, because recovery hard-errors on sealed
	// damage instead of truncating it away.
	Fsync bool
	// SnapshotEvery nudges the background compactor after that many appended
	// records since the last durable snapshot; 0 leaves compaction to
	// explicit CompactNow calls. The nudge is asynchronous — the apply path
	// never writes a snapshot.
	SnapshotEvery int
	// SegmentBytes seals and rotates the active WAL segment once it reaches
	// this size; 0 means DefaultSegmentBytes, negative disables size-based
	// rotation.
	SegmentBytes int64
	// SegmentRecords seals and rotates the active WAL segment once it holds
	// this many records; 0 disables record-based rotation.
	SegmentRecords int
	// Telemetry installs observation hooks on the durability hot path. Nil
	// disables all of them. One Telemetry value is typically shared by every
	// shard store, so the histograms aggregate the whole daemon's WAL work.
	Telemetry *Telemetry
}

// Telemetry is the store's metric hook set. Each field is an observe
// function (histogram-shaped) called from the group-commit goroutine; nil
// fields are skipped. Hooks must be cheap and concurrency-safe.
type Telemetry struct {
	// CommitSeconds observes the wall-clock duration of one group commit:
	// the batch write plus, when enabled, its fsync.
	CommitSeconds func(float64)
	// FsyncSeconds observes the fsync portion alone. Never called with
	// per-commit fsync disabled — the series then reports zero observations,
	// which is itself the signal.
	FsyncSeconds func(float64)
	// BatchRecords observes how many records each group commit carried — the
	// amortization factor that makes fsync affordable under load.
	BatchRecords func(float64)
}

// Recovery describes what Open found: how the current in-memory state was
// reconstructed. Served on /healthz so operators can see whether a restart
// was warm and whether a crash tore the log.
type Recovery struct {
	SnapshotSeq uint64 `json:"snapshotSeq"`
	SnapshotODs int    `json:"snapshotOds"`
	Replayed    int    `json:"replayedRecords"`
	TornBytes   int64  `json:"tornBytes"`
	Segments    int    `json:"segments"`
}

// Stats is a point-in-time summary of a shard store, read consistently
// under the store's mutex (seq and the WAL counters come from one critical
// section, so a scrape can never see walRecords ahead of seq mid-append).
// WALError carries the sticky write/sync failure when the log is dead — the
// shard still serves reads from memory but rejects mutations, and health
// checks must see that. SnapshotError and CompactionError carry the last
// background-compaction failure (snapshot write, or covered-segment
// deletion), cleared by the next success.
//
// Compaction lag has two units: SinceSnapshot counts records past the last
// durable snapshot, LagSegments counts sealed segments the snapshot does
// not fully cover — the unit admission control thresholds on, since sealed
// uncovered segments are exactly the disk the compactor has yet to reclaim.
type Stats struct {
	Seq             uint64   `json:"seq"`
	SnapshotSeq     uint64   `json:"snapshotSeq"`
	SinceSnapshot   int      `json:"recordsSinceSnapshot"`
	LagSegments     int      `json:"compactionLagSegments"`
	WALBytes        int64    `json:"walBytes"`
	WALRecords      uint64   `json:"walRecords"`
	WALSegments     int      `json:"walSegments"`
	CommitBatches   uint64   `json:"commitBatches"`
	Rotations       uint64   `json:"rotations"`
	Snapshots       uint64   `json:"snapshots"`
	SegmentsRemoved uint64   `json:"segmentsRemoved"`
	WALError        string   `json:"walError,omitempty"`
	SnapshotError   string   `json:"snapshotError,omitempty"`
	CompactionError string   `json:"compactionError,omitempty"`
	Recovery        Recovery `json:"recovery"`
}

// Source reports the durably-applied state a snapshot captures: the last
// applied sequence number, the catalog generation at exactly that seq, and
// the declared OD set at exactly that seq. The router supplies one per
// shard — its catalog publishes the three in one immutable value — and the
// compactor calls it at the start of every compaction. It must be cheap and
// must never call back into the store.
//
// The generation rides into the snapshot so that recovery (and replica
// bootstrap) can reconstruct the exact generation trajectory: generation is
// a deterministic function of the applied record history, and the snapshot
// pins the value at its cut point.
type Source func() (seq uint64, gen uint64, ods []core.OD)

// CompactionResult reports one compaction: the snapshot cut point, how many
// ODs it captured, and how many fully covered segments were deleted.
type CompactionResult struct {
	Seq             uint64
	Declared        int
	SegmentsRemoved int
}

// Store is the durability engine of one catalog shard — the leader's policy
// on its segment log: a segmented WAL for every mutation (group-committed by
// the goroutine in wal.go) plus a background-compacted snapshot. It hands
// recovered state back to the caller at Open and afterwards only appends;
// the caller (internal/router) owns the catalog the records apply to and
// registers an Applier (OnCommit), which the committer calls with each
// committed group in seq order — so WAL order equals apply order by
// construction. Snapshots are written solely by the compactor — the
// append/apply path never performs snapshot I/O, so a snapshot in progress
// stalls no writer.
type Store struct {
	dir string
	opt Options

	// compactMu serializes compactions: the background loop and synchronous
	// CompactNow callers take turns, so two snapshot writes never race.
	compactMu sync.Mutex

	// ioMu serializes every operation on the open segment's file — batch
	// writes, sealing, rotation, the final close — so the committer and the
	// compactor never interleave I/O on it. Lock order: ioMu before mu.
	ioMu sync.Mutex

	// mu guards seq assignment, batch staging, the segment metadata, the
	// sticky WAL error and the snapshot bookkeeping: one critical section
	// numbers a record and stages its frame, and one reads them all.
	mu            sync.Mutex
	log           *segLog   // its open segment changes only with ioMu held as well
	cur           *walBatch // accumulating group commit, not yet picked up
	tail          *walBatch // the group the last staged record joined
	apply         Applier   // publishes each committed group; nil publishes nothing
	walErr        error     // sticky write/sync/rotate failure
	closed        bool
	seq           uint64 // last assigned sequence number
	batches       uint64
	rotations     uint64
	snapshotSeq   uint64
	snapshotGen   uint64 // catalog generation pinned in the last durable snapshot
	sinceSnapshot int
	snapshots     uint64
	snapshotErr   error // last snapshot-write failure; cleared by a success
	compactErr    error // last covered-segment deletion failure; cleared by a success
	recovery      Recovery
	src           Source
	compactGate   chan struct{} // non-nil holds every compaction pass (fault drills)

	commitKick  chan struct{}
	commitStop  chan struct{}
	commitDone  chan struct{}
	compactKick chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	started     bool
}

// recoverShard is the recovery every shard directory gets, leader's or
// follower's: create dir if absent, sweep stranded temp files, load the
// latest snapshot, scan the segments in log order (openSegLog: a torn tail
// is cut in the last segment only), make the directory entries durable, and
// keep the records with sequence numbers after the snapshot (replayAfter).
func recoverShard(dir string) (l *segLog, snap Snapshot, replay []Record, torn int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Snapshot{}, nil, 0, err
	}
	if err := sweepTemp(dir); err != nil {
		return nil, Snapshot{}, nil, 0, err
	}
	if snap, _, err = loadSnapshot(dir); err != nil {
		return nil, Snapshot{}, nil, 0, err
	}
	l, recs, torn, err := openSegLog(dir)
	if err != nil {
		return nil, Snapshot{}, nil, 0, err
	}
	// File fsyncs cover contents, not the directory entries naming them —
	// without these, a power cut after the first acknowledged append could
	// lose the whole log file. A directory without segments has no entry to
	// protect yet: its first one comes from rotate, which fsyncs it.
	if l.cur.index != 0 {
		err = syncDir(dir)
	}
	if err == nil {
		err = syncDir(filepath.Dir(dir))
	}
	if err == nil {
		replay, err = replayAfter(snap.Seq, recs)
	}
	if err != nil {
		l.close()
		return nil, Snapshot{}, nil, 0, fmt.Errorf("store: recovering %s: %w", dir, err)
	}
	return l, snap, replay, torn, nil
}

// replayAfter keeps the records a snapshot at snapSeq does not cover. A crash
// between snapshot rename and segment deletion legitimately leaves covered
// records in the log (possibly with gaps — deletions may partially survive a
// crash), so those are skipped unexamined. Past the snapshot the sequence
// must be airtight: compaction deletes only snapshot-covered segment
// prefixes, so a gap there means acknowledged mutations are gone, and
// recovering around the hole would silently serve a state that never existed.
func replayAfter(snapSeq uint64, recs []Record) ([]Record, error) {
	replay := recs[:0:0]
	seq := snapSeq
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue
		}
		if rec.Seq != seq+1 {
			return nil, fmt.Errorf("WAL record gap: expected seq %d, found %d — a middle segment is missing or lost", seq+1, rec.Seq)
		}
		replay = append(replay, rec)
		seq = rec.Seq
	}
	return replay, nil
}

// Open recovers a shard store from dir (recoverShard) and returns the
// snapshot and the records after it, in log order. The caller applies the
// snapshot ODs and then the records to an empty catalog, without re-logging
// either (catalog.Apply), to reach exactly the pre-crash state.
func Open(dir string, opt Options) (*Store, Snapshot, []Record, error) {
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	l, snap, replay, torn, err := recoverShard(dir)
	if err != nil {
		return nil, Snapshot{}, nil, err
	}
	if l.cur.index == 0 {
		// A fresh shard: appends need an open segment.
		if err := l.rotate(1); err != nil {
			return nil, Snapshot{}, nil, err
		}
	}
	seq := snap.Seq
	if n := len(replay); n > 0 {
		seq = replay[n-1].Seq
	}
	s := &Store{
		dir:           dir,
		opt:           opt,
		log:           l,
		seq:           seq,
		snapshotSeq:   snap.Seq,
		snapshotGen:   snap.Gen,
		sinceSnapshot: len(replay),
		commitKick:    make(chan struct{}, 1),
		commitStop:    make(chan struct{}),
		commitDone:    make(chan struct{}),
		compactKick:   make(chan struct{}, 1),
		recovery: Recovery{
			SnapshotSeq: snap.Seq,
			SnapshotODs: len(snap.ODs),
			Replayed:    len(replay),
			TornBytes:   torn,
			Segments:    len(l.sealed) + 1,
		},
	}
	go s.commit()
	return s, snap, replay, nil
}

// AppendBatch logs declares and removes as ONE record in one frame, assigning
// it the next sequence number, so the pair commits or fails atomically —
// never half of it. The caller must Wait on the returned handle before
// acknowledging the mutation. When the records-since-snapshot threshold is
// crossed the background compactor is nudged — asynchronously; the append
// itself never snapshots.
func (s *Store) AppendBatch(declares, removes []core.OD) (p *Pending, seq uint64, err error) {
	switch {
	case len(removes) == 0:
		return s.appendRecord(Record{Op: OpDeclare, ODs: declares})
	case len(declares) == 0:
		return s.appendRecord(Record{Op: OpRemove, ODs: removes})
	default:
		return s.appendRecord(Record{Op: OpBatch, ODs: declares, Removes: removes})
	}
}

func (s *Store) appendRecord(rec Record) (p *Pending, seq uint64, err error) {
	s.mu.Lock()
	rec.Seq = s.seq + 1
	p, err = s.stageLocked(rec)
	if err != nil {
		s.mu.Unlock()
		return nil, 0, err
	}
	s.seq = rec.Seq
	s.sinceSnapshot++
	nudge := s.started && s.opt.SnapshotEvery > 0 && s.sinceSnapshot >= s.opt.SnapshotEvery
	s.mu.Unlock()
	if nudge {
		select {
		case s.compactKick <- struct{}{}:
		default:
		}
	}
	return p, rec.Seq, nil
}

// OnCommit registers the committer's Applier: once, after Open's recovery
// is applied, before traffic. Without one the store only logs.
func (s *Store) OnCommit(apply Applier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apply = apply
}

// StartCompactor wires the store's snapshot source and starts the background
// compaction goroutine. Call once, after Open, before traffic; the source is
// typically the owning shard's catalog's applied state. Without a running
// compactor, appends never nudge and CompactNow errors.
func (s *Store) StartCompactor(src Source) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("store: StartCompactor called twice")
	}
	s.src = src
	s.started = true
	s.compactStop = make(chan struct{})
	s.compactDone = make(chan struct{})
	// Recovery may have replayed a backlog already past the cadence — a
	// crash loop with sparse writes would otherwise never compact, since
	// appends are the only other kick source.
	due := s.opt.SnapshotEvery > 0 && s.sinceSnapshot >= s.opt.SnapshotEvery
	s.mu.Unlock()
	if due {
		select {
		case s.compactKick <- struct{}{}:
		default:
		}
	}
	go s.compactLoop()
}

func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.compactStop:
			return
		case <-s.compactKick:
			// Outcome lands in Stats (snapshots / snapshotError /
			// compactionError); nobody is waiting on a background pass.
			_, _ = s.compactOnce()
		}
	}
}

// CompactNow runs one full compaction synchronously — snapshot at the
// source's applied watermark, rotate the active segment if the snapshot
// fully covers it, delete covered segments — waiting first for every record
// staged before the call to commit and publish (or fail), so the cut reaches
// the caller's write horizon, then for any in-flight background pass. This
// is the POST /snapshot admin nudge.
func (s *Store) CompactNow() (CompactionResult, error) {
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	if tail != nil {
		<-tail.done
	}
	return s.compactOnce()
}

func (s *Store) compactOnce() (CompactionResult, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	src := s.src
	gate := s.compactGate
	stop := s.compactStop
	s.mu.Unlock()
	if src == nil {
		return CompactionResult{}, errors.New("store: no compactor source; call StartCompactor first")
	}
	if gate != nil {
		select {
		case <-gate:
		case <-stop:
			// Shutdown mid-drill: abandon the pass instead of wedging Close.
			return CompactionResult{}, errors.New("store: compaction aborted by shutdown")
		}
	}
	cutSeq, cutGen, ods := src()
	res := CompactionResult{Seq: cutSeq, Declared: len(ods)}
	// A durable snapshot at this exact cut already exists on a quiescent
	// shard: skip the marshal+write+fsync, but still sweep segments below —
	// a crash between an earlier snapshot and its deletions can leave
	// covered segments behind.
	s.mu.Lock()
	skipWrite := cutSeq == s.snapshotSeq && s.snapshotErr == nil
	s.mu.Unlock()
	if !skipWrite {
		if err := writeSnapshot(s.dir, Snapshot{Seq: cutSeq, Gen: cutGen, ODs: ods}); err != nil {
			err = fmt.Errorf("store: writing snapshot: %w", err)
			s.mu.Lock()
			s.snapshotErr = err
			s.mu.Unlock()
			return res, err
		}
		s.mu.Lock()
		s.snapshotErr = nil
		s.snapshotSeq = cutSeq
		s.snapshotGen = cutGen
		s.snapshots++
		if s.seq > cutSeq {
			s.sinceSnapshot = int(s.seq - cutSeq)
		} else {
			s.sinceSnapshot = 0
		}
		s.mu.Unlock()
	}
	// The snapshot is durable; everything at or before cutSeq is redundant
	// in the log. Seal the active segment too when it is fully covered, so
	// a quiescent shard compacts down to an empty log — the segmented
	// equivalent of truncating to zero. Records staged but not committed
	// carry seqs past any snapshot (snapshots cut at the applied watermark,
	// applies happen only after commit), so they land in the fresh segment.
	s.ioMu.Lock()
	s.mu.Lock()
	if open := s.log.cur; open.records > 0 && open.lastSeq <= cutSeq {
		s.rotateLocked()
	}
	s.ioMu.Unlock()
	// Then delete the sealed segments the snapshot covers. One directory
	// fsync makes the deletions durable, taken outside mu so writers staging
	// behind a compaction wait for unlinks at most.
	removed, err := s.log.dropCovered(cutSeq)
	s.mu.Unlock()
	if err == nil && removed > 0 {
		err = syncDir(s.dir)
	}
	res.SegmentsRemoved = removed
	s.mu.Lock()
	s.compactErr = err
	s.mu.Unlock()
	if err != nil {
		return res, fmt.Errorf("store: deleting covered WAL segments: %w", err)
	}
	return res, nil
}

// CompactionLagSegments reports how many sealed WAL segments the last
// durable snapshot does not fully cover — the backlog the compactor still
// has to retire. The router's admission control calls this per mutation, so
// it stays one mutex acquisition and a short scan of segment metadata.
func (s *Store) CompactionLagSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.lag(s.snapshotSeq)
}

// Kick nudges the background compactor asynchronously, if one is running.
// Admission control calls it when rejecting for compaction lag, so shedding
// load also accelerates the recovery from the condition that shed it.
func (s *Store) Kick() {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if !started {
		return
	}
	select {
	case s.compactKick <- struct{}{}:
	default:
	}
}

// StallCompaction holds every compaction pass — background and CompactNow
// alike — at its entry until the returned resume function is called (or the
// store shuts down). A fault-injection hook for admission-control drills:
// with the compactor pinned, sealed segments accumulate and backpressure
// must shed writes. Resume is idempotent; call it before Close when the
// drill relied on a synchronous CompactNow, or that caller hangs.
func (s *Store) StallCompaction() (resume func()) {
	gate := make(chan struct{})
	s.mu.Lock()
	s.compactGate = gate
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			if s.compactGate == gate {
				s.compactGate = nil
			}
			s.mu.Unlock()
			close(gate)
		})
	}
}

// FailWAL injects a sticky failure into the shard's WAL, as if its disk had
// died mid-flight: future appends fail fast and Stats reports WALError. A
// fault-injection hook for health-reporting drills — the daemon keeps
// serving reads but must flag the shard degraded.
func (s *Store) FailWAL(cause error) {
	if cause == nil {
		cause = errors.New("store: WAL failure injected")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.walErr == nil {
		s.walErr = cause
	}
}

// Stats returns current counters as ONE consistent reading: the sequence
// bookkeeping and the WAL counters share the store mutex with the append
// path, so a health scrape can never observe walRecords ahead of seq from a
// half-staged append.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Seq:             s.seq,
		SnapshotSeq:     s.snapshotSeq,
		SinceSnapshot:   s.sinceSnapshot,
		LagSegments:     s.log.lag(s.snapshotSeq),
		CommitBatches:   s.batches,
		Rotations:       s.rotations,
		Snapshots:       s.snapshots,
		SegmentsRemoved: s.log.removed,
		Recovery:        s.recovery,
	}
	st.WALSegments, st.WALBytes, st.WALRecords = s.log.totals()
	if s.walErr != nil {
		st.WALError = s.walErr.Error()
	}
	if s.snapshotErr != nil {
		st.SnapshotError = s.snapshotErr.Error()
	}
	if s.compactErr != nil {
		st.CompactionError = s.compactErr.Error()
	}
	return st
}

// Close refuses further appends, stops the compactor, then stops the
// committer (flushing staged batches) and closes the active segment file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	started := s.started
	s.started = false
	s.mu.Unlock()
	if started {
		close(s.compactStop)
		<-s.compactDone
	}
	close(s.commitStop)
	<-s.commitDone
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.log.close()
}
