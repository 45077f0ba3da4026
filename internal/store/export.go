package store

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrNoSegment reports a segment-read request for an index this store does
// not (or no longer) hold — typically because compaction deleted it between
// a follower's metadata poll and its fetch. Followers treat it as "re-read
// the metadata and consider a snapshot bootstrap", not as corruption.
var ErrNoSegment = errors.New("store: no such WAL segment")

// SegmentInfo describes one live WAL segment for replication: enough for a
// follower to decide which segment holds its next needed record and how many
// bytes of it exist. Size is the COMMITTED size — bytes a recovery scan (or
// a remote fetch) will find complete frames in; an in-flight group commit's
// bytes are excluded until it succeeds. FirstSeq/LastSeq are zero while the
// segment holds no records.
type SegmentInfo struct {
	Index    uint64 `json:"index"`
	FirstSeq uint64 `json:"firstSeq"`
	LastSeq  uint64 `json:"lastSeq"`
	Records  uint64 `json:"records"`
	Size     int64  `json:"size"`
	Sealed   bool   `json:"sealed"`
}

// SegmentInfos lists the store's live segments in log order, sealed first,
// the active segment last. The listing is a consistent reading of segment
// metadata; the files themselves may shrink in count (compaction) after it
// returns, which fetchers discover as ErrNoSegment.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.infos()
}

func segInfo(sg segment, sealed bool) SegmentInfo {
	return SegmentInfo{
		Index:    sg.index,
		FirstSeq: sg.firstSeq,
		LastSeq:  sg.lastSeq,
		Records:  sg.records,
		Size:     sg.size,
		Sealed:   sealed,
	}
}

// ReadSegmentAt serves up to maxBytes of segment index starting at byte
// offset off, clamped to the segment's committed size — so a read of the
// active segment never returns bytes a concurrent group commit is still
// writing (or may yet fail and report un-durable). The returned SegmentInfo
// is the metadata at read time; a fetcher uses its Size and Sealed to decide
// whether the segment is exhausted. Reading at or past the committed size
// returns empty bytes, not an error. The offset is a raw byte position —
// mid-frame offsets are fine, which is what makes torn fetches resumable.
func (s *Store) ReadSegmentAt(index uint64, off, maxBytes int64) ([]byte, SegmentInfo, error) {
	if off < 0 || maxBytes <= 0 {
		return nil, SegmentInfo{}, fmt.Errorf("store: bad segment read bounds off=%d max=%d", off, maxBytes)
	}
	// Only metadata is read under the lock; the file is opened by path
	// afterwards — the committer owns the open segment's handle and sealed
	// files are closed.
	s.mu.Lock()
	sg, sealed, found := s.log.find(index)
	s.mu.Unlock()
	if !found {
		return nil, SegmentInfo{}, fmt.Errorf("%w: index %d", ErrNoSegment, index)
	}
	info := segInfo(sg, sealed)
	if off >= info.Size {
		return nil, info, nil
	}
	n := info.Size - off
	if n > maxBytes {
		n = maxBytes
	}
	f, err := os.Open(sg.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Compaction unlinked it after the metadata read; same contract
			// as not finding it at all.
			return nil, SegmentInfo{}, fmt.Errorf("%w: index %d", ErrNoSegment, index)
		}
		return nil, SegmentInfo{}, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		return nil, SegmentInfo{}, fmt.Errorf("store: reading segment %d at %d: %w", index, off, err)
	}
	return buf, info, nil
}

// SnapshotFile loads the shard's current durable snapshot for replica
// bootstrap; ok is false when none has been written yet.
func (s *Store) SnapshotFile() (Snapshot, bool, error) {
	return loadSnapshot(s.dir)
}

// SnapshotGen reports the cut of the last durable snapshot — its seq and the
// catalog generation pinned in it (both zero before the first snapshot) — as
// one reading, so the pair always describes the same snapshot.
func (s *Store) SnapshotGen() (seq, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotSeq, s.snapshotGen
}
