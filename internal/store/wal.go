package store

import (
	"fmt"
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

// This file is the leader's policy on the shard's segment log. Store hands
// records to stageLocked in seq order; the committer decides when their
// bytes reach the log — staged records group-commit with one write and at
// most one fsync — and when the open segment seals: at the size/record
// thresholds, or when a snapshot covers it. Sealed segments are immutable,
// which is what lets the compactor delete the ones a durable snapshot fully
// covers without ever touching the writer path.

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

// stageLocked encodes rec, whose seq the caller has just assigned, and
// stages the frame into the current group-commit batch. Caller holds s.mu,
// which is what keeps staged frames in seq order.
func (s *Store) stageLocked(rec Record) (*Pending, error) {
	frame, err := encodeFrame(rec)
	if err != nil {
		return nil, err
	}
	if len(frame) > frameHeaderLen+maxRecordBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte WAL frame limit; split the batch",
			len(frame)-frameHeaderLen, maxRecordBytes)
	}
	if s.closed {
		return nil, fmt.Errorf("store: WAL %s is closed", s.dir)
	}
	if s.walErr != nil {
		return nil, fmt.Errorf("store: WAL %s failed earlier: %w", s.dir, s.walErr)
	}
	if s.cur == nil {
		s.cur = &walBatch{done: make(chan struct{}), firstSeq: rec.Seq}
	}
	s.cur.buf = append(s.cur.buf, frame...)
	s.cur.n++
	s.cur.lastSeq = rec.Seq
	select {
	case s.commitKick <- struct{}{}:
	default:
	}
	return &Pending{b: s.cur}, nil
}

// commit is the group-commit goroutine: it drains staged batches, writing
// each with one write call and at most one fsync, then releases the batch's
// waiters. One slow fsync therefore covers every writer that staged while it
// was pending — the latency of an append under load is one batch, not one
// fsync per record. Size/record-threshold rotation runs here too, between
// batches, so the active segment is swapped only by the goroutine that
// writes it.
func (s *Store) commit() {
	defer close(s.commitDone)
	for {
		select {
		case <-s.commitKick:
		case <-s.commitStop:
			s.commitOne() // flush whatever is still staged
			return
		}
		s.commitOne()
	}
}

func (s *Store) commitOne() {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	b := s.cur
	s.cur = nil
	err := s.walErr
	s.mu.Unlock()
	if b == nil {
		return
	}
	tel := s.opt.Telemetry
	if err == nil {
		// Timing wraps the whole durability step; the fsync gets its own
		// series because it dominates commit latency whenever it is on, and
		// separating the two is what shows whether a latency regression is
		// the disk or the write path.
		var start time.Time
		if tel != nil {
			start = time.Now()
		}
		err = s.log.write(b.buf)
		if err == nil && s.opt.Fsync {
			var fstart time.Time
			if tel != nil {
				fstart = time.Now()
			}
			err = s.log.sync()
			if tel != nil && tel.FsyncSeconds != nil {
				tel.FsyncSeconds(time.Since(fstart).Seconds())
			}
		}
		if err == nil && tel != nil {
			if tel.CommitSeconds != nil {
				tel.CommitSeconds(time.Since(start).Seconds())
			}
			if tel.BatchRecords != nil {
				tel.BatchRecords(float64(b.n))
			}
		}
	}
	s.mu.Lock()
	rotate := false
	if err != nil {
		if s.walErr == nil {
			s.walErr = err
		}
	} else {
		s.log.grew(int64(len(b.buf)), b.n, b.firstSeq, b.lastSeq)
		s.batches++
		rotate = s.rotationDueLocked()
	}
	s.mu.Unlock()
	b.err = err
	close(b.done)
	if rotate {
		s.mu.Lock()
		s.rotateLocked()
		s.mu.Unlock()
	}
}

// rotationDueLocked reports whether the active segment has crossed its
// size or record threshold. Caller holds s.mu.
func (s *Store) rotationDueLocked() bool {
	open := s.log.cur
	if open.records == 0 {
		return false
	}
	if s.opt.SegmentBytes > 0 && open.size >= s.opt.SegmentBytes {
		return true
	}
	return s.opt.SegmentRecords > 0 && open.records >= uint64(s.opt.SegmentRecords)
}

// rotateLocked seals the open segment and opens the next one. Caller holds
// ioMu — the committer between batches, or the compactor when a snapshot
// covers the open segment — and mu: ioMu already keeps every commit out, so
// holding mu across the rotation's file I/O as well delays no write that
// could have proceeded. Any failure poisons the log: a WAL that can no
// longer seal durably or grow a fresh segment must stop acknowledging.
func (s *Store) rotateLocked() {
	if s.closed || s.walErr != nil {
		return
	}
	if s.walErr = s.log.rotate(s.log.cur.index + 1); s.walErr == nil {
		s.rotations++
	}
}
