package store

import (
	"fmt"
	"sync"
	"time"

	"odlib/internal/core"
)

// Op is the kind of a logged mutation.
type Op string

// The mutation kinds the catalog supports. A batch record carries declares
// and removes together in ONE frame, so a mixed /ods/batch is atomic on
// disk — two separate records could land in different group commits, and a
// crash (or commit failure) between them would resurrect half a batch the
// client was told failed.
const (
	OpDeclare Op = "declare"
	OpRemove  Op = "remove"
	OpBatch   Op = "batch"
)

// Record is one logged mutation batch, applied atomically at recovery. For
// OpDeclare and OpRemove the ODs field holds the affected ODs; OpBatch
// declares ODs and withdraws Removes, in that order. ODs travel in the
// stable statement wire form (core.OD.MarshalText).
type Record struct {
	Seq     uint64    `json:"seq"`
	Op      Op        `json:"op"`
	ODs     []core.OD `json:"ods,omitempty"`
	Removes []core.OD `json:"removes,omitempty"`
}

// wal is the leader's policy on the shard's segment log. The store hands it
// records in seq order; it decides when their bytes reach the log — staged
// records group-commit with one write and at most one fsync — and when the
// open segment seals: at the size/record thresholds, or when a snapshot
// covers it. Sealed segments are immutable, which is what lets the
// background compactor delete the ones a durable snapshot fully covers
// without ever touching the writer path.
type wal struct {
	fsync      bool
	segBytes   int64
	segRecords uint64
	tel        *Telemetry

	// ioMu serializes every operation on the open segment's file — batch
	// writes, sealing, rotation, the final close — so the committer and the
	// compactor never interleave I/O on it. Lock order: ioMu before mu.
	ioMu sync.Mutex

	mu        sync.Mutex
	log       *segLog   // its open segment changes only with ioMu held as well
	cur       *walBatch // accumulating batch, not yet picked up
	err       error     // sticky write/sync/rotate failure
	closed    bool
	batches   uint64
	rotations uint64

	kick  chan struct{}
	stopc chan struct{}
	done  chan struct{}
}

// walStats is one consistent reading of the log's counters.
type walStats struct {
	size        int64
	records     uint64
	segments    int
	lagSegments int // sealed segments not fully covered by the snapshot
	batches     uint64
	rotation    uint64
	removed     uint64
	err         error
}

// walBatch is one group commit: the concatenated frames of every writer that
// staged while the committer was busy, released together.
type walBatch struct {
	buf      []byte
	n        uint64 // records staged in buf
	firstSeq uint64
	lastSeq  uint64
	done     chan struct{}
	err      error
}

// Pending is a staged append; Wait blocks until the containing group commit
// is durable and returns its outcome. Acknowledge mutations to clients only
// after Wait returns nil.
type Pending struct{ b *walBatch }

// Wait blocks until the record's batch has been written (and fsynced when
// enabled), returning the batch's write error if any.
func (p *Pending) Wait() error {
	if p == nil || p.b == nil {
		return nil
	}
	<-p.b.done
	return p.b.err
}

// newWAL starts the group committer over a recovered log whose last segment
// is open for appends.
func newWAL(l *segLog, opt Options) *wal {
	w := &wal{
		fsync:      opt.Fsync,
		segBytes:   opt.SegmentBytes,
		segRecords: uint64(opt.SegmentRecords),
		tel:        opt.Telemetry,
		log:        l,
		kick:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.commit()
	return w
}

// append stages a record into the current group-commit batch and returns a
// Pending handle. The caller must Wait before acknowledging the mutation,
// and must hand records in ascending Seq order (the store's mutex does).
func (w *wal) append(rec Record) (*Pending, error) {
	frame, err := encodeFrame(rec)
	if err != nil {
		return nil, err
	}
	if len(frame) > frameHeaderLen+maxRecordBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte WAL frame limit; split the batch",
			len(frame)-frameHeaderLen, maxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("store: WAL %s is closed", w.log.dir)
	}
	if w.err != nil {
		return nil, fmt.Errorf("store: WAL %s failed earlier: %w", w.log.dir, w.err)
	}
	if w.cur == nil {
		w.cur = &walBatch{done: make(chan struct{}), firstSeq: rec.Seq}
	}
	w.cur.buf = append(w.cur.buf, frame...)
	w.cur.n++
	w.cur.lastSeq = rec.Seq
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return &Pending{b: w.cur}, nil
}

// commit is the group-commit goroutine: it drains staged batches, writing
// each with one write call and at most one fsync, then releases the batch's
// waiters. One slow fsync therefore covers every writer that staged while it
// was pending — the latency of an append under load is one batch, not one
// fsync per record. Size/record-threshold rotation runs here too, between
// batches, so the active segment is swapped only by the goroutine that
// writes it.
func (w *wal) commit() {
	defer close(w.done)
	for {
		select {
		case <-w.kick:
		case <-w.stopc:
			w.commitOne() // flush whatever is still staged
			return
		}
		w.commitOne()
	}
}

func (w *wal) commitOne() {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	b := w.cur
	w.cur = nil
	sticky := w.err
	w.mu.Unlock()
	if b == nil {
		return
	}
	err := sticky
	if err == nil {
		// Timing wraps the whole durability step; the fsync gets its own
		// series because it dominates commit latency whenever it is on, and
		// separating the two is what shows whether a latency regression is
		// the disk or the write path.
		var start time.Time
		if w.tel != nil {
			start = time.Now()
		}
		err = w.log.write(b.buf)
		if err == nil && w.fsync {
			var fstart time.Time
			if w.tel != nil {
				fstart = time.Now()
			}
			err = w.log.sync()
			if w.tel != nil && w.tel.FsyncSeconds != nil {
				w.tel.FsyncSeconds(time.Since(fstart).Seconds())
			}
		}
		if err == nil && w.tel != nil {
			if w.tel.CommitSeconds != nil {
				w.tel.CommitSeconds(time.Since(start).Seconds())
			}
			if w.tel.BatchRecords != nil {
				w.tel.BatchRecords(float64(b.n))
			}
		}
	}
	w.mu.Lock()
	rotate := false
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else {
		w.log.grew(int64(len(b.buf)), b.n, b.firstSeq, b.lastSeq)
		w.batches++
		rotate = w.rotationDueLocked()
	}
	w.mu.Unlock()
	b.err = err
	close(b.done)
	if rotate {
		w.mu.Lock()
		w.rotateLocked()
		w.mu.Unlock()
	}
}

// rotationDueLocked reports whether the active segment has crossed its
// size or record threshold. Caller holds w.mu.
func (w *wal) rotationDueLocked() bool {
	open := w.log.cur
	if open.records == 0 {
		return false
	}
	if w.segBytes > 0 && open.size >= w.segBytes {
		return true
	}
	return w.segRecords > 0 && open.records >= w.segRecords
}

// rotateLocked seals the open segment and opens the next one. Caller holds
// ioMu — the committer between batches, or the compactor through
// rotateForCompaction — and mu: ioMu already keeps every commit out, so
// holding mu across the rotation's file I/O as well delays no write that
// could have proceeded. Any failure poisons the log: a WAL that can no
// longer seal durably or grow a fresh segment must stop acknowledging.
func (w *wal) rotateLocked() {
	if w.closed || w.err != nil {
		return
	}
	if w.err = w.log.rotate(w.log.cur.index + 1); w.err == nil {
		w.rotations++
	}
}

// rotateForCompaction seals the open segment when a snapshot at seq fully
// covers its contents, so the compactor can delete it like any other covered
// segment — the segmented equivalent of the old truncate-to-zero reset.
// Records staged but not yet committed always carry seqs beyond any
// snapshot (snapshots cut at the applied watermark, applies happen only
// after commit), so they land safely in the fresh segment.
func (w *wal) rotateForCompaction(seq uint64) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if open := w.log.cur; open.records > 0 && open.lastSeq <= seq {
		w.rotateLocked()
	}
}

// dropCovered deletes the sealed segments a durable snapshot at seq covers
// and makes the deletions durable with one directory fsync, taken outside mu
// so writers staging behind a compaction wait for unlinks at most.
func (w *wal) dropCovered(seq uint64) (int, error) {
	w.mu.Lock()
	removed, err := w.log.dropCovered(seq)
	w.mu.Unlock()
	if err != nil || removed == 0 {
		return removed, err
	}
	return removed, syncDir(w.log.dir)
}

// poison records a sticky failure: the in-flight batch may still complete,
// but no later append will be acknowledged.
func (w *wal) poison(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// close stops the committer (flushing staged batches) and closes the active
// segment file.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stopc)
	<-w.done
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	return w.log.close()
}

// stats returns one consistent reading of sizes, counters and the sticky
// failure across every live segment. coveredSeq (the last durable snapshot
// cut) determines which sealed segments still count as compaction backlog.
func (w *wal) stats(coveredSeq uint64) walStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := walStats{
		lagSegments: w.log.lag(coveredSeq),
		batches:     w.batches,
		rotation:    w.rotations,
		removed:     w.log.removed,
		err:         w.err,
	}
	st.segments, st.size, st.records = w.log.totals()
	return st
}

// lagSegments counts sealed segments holding records past coveredSeq — the
// compactor's backlog, and the admission-control signal.
func (w *wal) lagSegments(coveredSeq uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.lag(coveredSeq)
}
