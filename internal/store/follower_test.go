package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// leaderBytes runs a leader store in a temp dir, appends the given statement
// groups (one record each), and returns the raw bytes of every segment plus
// the leader's infos — the exact stream a follower would fetch.
func leaderBytes(t *testing.T, segRecords int, groups ...[]string) (map[uint64][]byte, []SegmentInfo) {
	t.Helper()
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: false, SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, stmts := range groups {
		appendWait(t, s, stmts...)
	}
	infos := s.SegmentInfos()
	out := make(map[uint64][]byte, len(infos))
	for _, info := range infos {
		b, _, err := s.ReadSegmentAt(info.Index, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		out[info.Index] = b
	}
	return out, infos
}

// eachBacking runs fn against both follower backings: a directory, and none
// (the pure-cache follower, dir == ""). The ingest protocol, its checks and
// its counters must not depend on which one it is.
func eachBacking(t *testing.T, fn func(t *testing.T, dir string)) {
	t.Run("dir", func(t *testing.T) { fn(t, t.TempDir()) })
	t.Run("memory", func(t *testing.T) { fn(t, "") })
}

func TestFollowerIngestAndRecover(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 2,
		[]string{"[A] -> [B]"}, []string{"[B] -> [C]"}, []string{"[C] -> [D]"})
	if len(infos) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(infos))
	}

	eachBacking(t, func(t *testing.T, dir string) {
		fs, snap, replay, err := OpenFollower(dir)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq != 0 || len(replay) != 0 {
			t.Fatalf("fresh follower recovered snap=%+v replay=%d", snap, len(replay))
		}
		var applied []Record
		for _, info := range infos {
			recs, err := fs.Ingest(info.Index, 0, bytesBySeg[info.Index])
			if err != nil {
				t.Fatalf("ingest segment %d: %v", info.Index, err)
			}
			applied = append(applied, recs...)
			if info.Sealed {
				if err := fs.Seal(info.Index, info.Size); err != nil {
					t.Fatalf("seal segment %d: %v", info.Index, err)
				}
			}
		}
		if len(applied) != 3 {
			t.Fatalf("applied %d records, want 3", len(applied))
		}
		for i, rec := range applied {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, rec.Seq)
			}
		}
		if _, _, _, last := fs.Next(); last != 3 {
			t.Fatalf("lastSeq = %d, want 3", last)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if dir == "" {
			return // a pure cache has nothing to recover
		}

		// Re-open: the follower dir must replay the same records —
		// byte-for-byte compatibility with leader recovery.
		fs2, snap2, replay2, err := OpenFollower(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs2.Close()
		if snap2.Seq != 0 || len(replay2) != 3 {
			t.Fatalf("reopen recovered snap=%+v replay=%d, want 0/3", snap2, len(replay2))
		}
		if _, _, _, last := fs2.Next(); last != 3 {
			t.Fatalf("reopened lastSeq = %d, want 3", last)
		}
	})
}

func TestFollowerIngestPartialAndOverlap(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 0, []string{"[A] -> [B]"}, []string{"[B] -> [C]"})
	info := infos[0]
	raw := bytesBySeg[info.Index]
	ends := frameEnds(t, raw)
	if len(ends) != 2 {
		t.Fatalf("want 2 frames, got %d", len(ends))
	}

	eachBacking(t, func(t *testing.T, dir string) {
		fs, _, _, err := OpenFollower(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()

		// Partial write: half of frame one parses no records yet.
		half := ends[0] / 2
		recs, err := fs.Ingest(info.Index, 0, raw[:half])
		if err != nil || len(recs) != 0 {
			t.Fatalf("half-frame ingest = %d recs, %v", len(recs), err)
		}
		// Overlapping re-send (retry from offset 0) must skip what's held
		// and parse the now-complete frames.
		recs, err = fs.Ingest(info.Index, 0, raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
			t.Fatalf("overlap ingest parsed %+v", recs)
		}
		// A gap is a protocol violation, not data.
		if _, err := fs.Ingest(info.Index, int64(len(raw))+7, []byte{1, 2, 3}); !errors.Is(err, ErrIngestGap) {
			t.Fatalf("gap ingest err = %v, want ErrIngestGap", err)
		}
	})
}

func TestFollowerBadFrameTruncateRefetch(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 0, []string{"[A] -> [B]"}, []string{"[B] -> [C]"})
	info := infos[0]
	raw := bytesBySeg[info.Index]
	ends := frameEnds(t, raw)

	eachBacking(t, func(t *testing.T, dir string) {
		fs, _, _, err := OpenFollower(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()

		// Corrupt a byte inside frame two: frame one applies, the bad frame
		// is reported, the tail truncates back to the frame-one boundary.
		bad := append([]byte(nil), raw...)
		bad[ends[0]+12] ^= 0xFF
		recs, err := fs.Ingest(info.Index, 0, bad)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("corrupt ingest err = %v, want ErrBadFrame", err)
		}
		if len(recs) != 1 || recs[0].Seq != 1 {
			t.Fatalf("good prefix parsed %+v", recs)
		}
		if err := fs.TruncateTail(); err != nil {
			t.Fatal(err)
		}
		if _, size, _, last := fs.Next(); size != ends[0] || last != 1 {
			t.Fatalf("after truncate: size=%d last=%d, want %d/1", size, last, ends[0])
		}
		// Refetch from the truncated size heals the segment.
		recs, err = fs.Ingest(info.Index, ends[0], raw[ends[0]:])
		if err != nil || len(recs) != 1 || recs[0].Seq != 2 {
			t.Fatalf("refetch = %+v, %v", recs, err)
		}
	})
}

func TestFollowerInstallSnapshotDropsSegments(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 1, []string{"[A] -> [B]"}, []string{"[B] -> [C]"})
	dir := t.TempDir()
	fs, _, _, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	info := infos[0]
	if _, err := fs.Ingest(info.Index, 0, bytesBySeg[info.Index]); err != nil {
		t.Fatal(err)
	}

	// A snapshot behind local state must be refused — installing it would
	// lose applied records.
	if err := fs.InstallSnapshot(Snapshot{Seq: 0}); err == nil {
		t.Fatal("InstallSnapshot behind local state succeeded")
	}
	snap := Snapshot{Seq: 5, Gen: 5, ODs: mustODs(t, "[A] -> [B]")}
	if err := fs.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.SnapshotSeq != 5 || st.SnapshotGen != 5 || st.Segments != 0 {
		t.Fatalf("after install: %+v", st)
	}
	// No wal files may survive the install.
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(matches) != 0 {
		t.Fatalf("stale segments after install: %v", matches)
	}

	// And recovery starts from the snapshot.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, snap2, replay, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if snap2.Seq != 5 || snap2.Gen != 5 || len(replay) != 0 {
		t.Fatalf("recovered snap=%+v replay=%d", snap2, len(replay))
	}
}

func TestFollowerSealOpenDiscardsPending(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 0, []string{"[A] -> [B]"})
	info := infos[0]
	raw := bytesBySeg[info.Index]

	eachBacking(t, func(t *testing.T, dir string) {
		fs, _, _, err := OpenFollower(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		// Full frame plus a dangling half-frame of garbage-to-be.
		if _, err := fs.Ingest(info.Index, 0, raw); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Ingest(info.Index, int64(len(raw)), []byte{9, 9, 9}); err != nil {
			t.Fatal(err)
		}
		if err := fs.SealOpen(); err != nil {
			t.Fatal(err)
		}
		idx, _, open, last := fs.Next()
		if open || last != 1 {
			t.Fatalf("after SealOpen: idx=%d open=%v last=%d", idx, open, last)
		}
		// The next segment opens fresh at offset zero with a higher index —
		// never the retired index again.
		if _, err := fs.Ingest(info.Index, 0, raw); !errors.Is(err, ErrIngestGap) {
			t.Fatalf("reopening a sealed index = %v, want ErrIngestGap", err)
		}
		if _, err := fs.Ingest(info.Index+1, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFollowerTornTailTruncatedOnOpen(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 0, []string{"[A] -> [B]"}, []string{"[B] -> [C]"})
	info := infos[0]
	raw := bytesBySeg[info.Index]
	ends := frameEnds(t, raw)

	dir := t.TempDir()
	fs, _, _, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Ingest(info.Index, 0, raw); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-fetch: the file holds frame one plus half of frame two.
	path := filepath.Join(dir, segmentName(info.Index))
	if err := os.Truncate(path, ends[0]+(ends[1]-ends[0])/2); err != nil {
		t.Fatal(err)
	}
	fs2, _, replay, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if len(replay) != 1 || replay[0].Seq != 1 {
		t.Fatalf("torn reopen replayed %+v", replay)
	}
	if _, size, _, _ := fs2.Next(); size != ends[0] {
		t.Fatalf("torn tail not truncated: size=%d want %d", size, ends[0])
	}
}

// TestFollowerCountersMeanOneThing pins what the fetch counters count, on
// both backings: BytesFetched is bytes newly taken (a re-sent overlap is not
// fetched twice), SegmentsFetched is accepted Ingest calls, SegmentsSealed
// counts Seal and SealOpen alike, SnapshotsInstalled counts completed
// installs — and the leader's last-polled position rides in the same reading.
func TestFollowerCountersMeanOneThing(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 1, []string{"[A] -> [B]"}, []string{"[B] -> [C]"})
	first, second := infos[0], infos[1]
	raw := bytesBySeg[first.Index]

	eachBacking(t, func(t *testing.T, dir string) {
		fs, _, _, err := OpenFollower(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		fs.NoteLeader(2, 2)

		half := int64(len(raw) / 2)
		if _, err := fs.Ingest(first.Index, 0, raw[:half]); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Ingest(first.Index, 0, raw); err != nil { // re-sends the first half
			t.Fatal(err)
		}
		if _, err := fs.Ingest(first.Index, half+99, raw); !errors.Is(err, ErrIngestGap) { // refused: not a fetch
			t.Fatalf("gap ingest err = %v", err)
		}
		if err := fs.Seal(first.Index, first.Size); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Ingest(second.Index, 0, bytesBySeg[second.Index]); err != nil {
			t.Fatal(err)
		}
		if err := fs.SealOpen(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SealOpen(); err != nil { // nothing open: seals nothing
			t.Fatal(err)
		}
		if err := fs.InstallSnapshot(Snapshot{Seq: 2, Gen: 2, ODs: mustODs(t, "[A] -> [B]", "[B] -> [C]")}); err != nil {
			t.Fatal(err)
		}

		st := fs.Stats()
		wantBytes := uint64(len(raw) + len(bytesBySeg[second.Index]))
		if st.BytesFetched != wantBytes || st.SegmentsFetched != 3 || st.SegmentsSealed != 2 || st.SnapshotsInstalled != 1 {
			t.Fatalf("counters = %+v, want %d bytes over 3 fetches, 2 seals, 1 install", st, wantBytes)
		}
		if st.LeaderSeq != 2 || st.LeaderGen != 2 || st.LastSeq != 2 || st.SnapshotSeq != 2 {
			t.Fatalf("positions = %+v, want everything at 2", st)
		}
		if st.Segments != 0 || st.WALBytes != 0 {
			t.Fatalf("after a covering install: %+v, want no segments left", st)
		}
	})
}

// TestFollowerInstallSnapshotRetriesAfterFailedUnlink: a segment that will
// not unlink fails the install, but every segment already unlinked is
// already forgotten — so once the obstacle is gone a retry finishes the job
// instead of dying on ENOENT for a file the first attempt deleted.
func TestFollowerInstallSnapshotRetriesAfterFailedUnlink(t *testing.T) {
	bytesBySeg, infos := leaderBytes(t, 1, []string{"[A] -> [B]"}, []string{"[B] -> [C]"}, []string{"[C] -> [D]"})
	dir := t.TempDir()
	fs, _, _, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, info := range infos[:3] {
		if _, err := fs.Ingest(info.Index, 0, bytesBySeg[info.Index]); err != nil {
			t.Fatal(err)
		}
		if err := fs.Seal(info.Index, info.Size); err != nil {
			t.Fatal(err)
		}
	}

	// A non-empty directory squats on the second segment's name: os.Remove
	// fails on it after the first segment is already gone.
	victim := filepath.Join(dir, segmentName(infos[1].Index))
	aside := filepath.Join(t.TempDir(), "segment")
	if err := os.Rename(victim, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(victim, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Seq: 3, Gen: 3, ODs: mustODs(t, "[A] -> [B]")}
	if err := fs.InstallSnapshot(snap); err == nil {
		t.Fatal("InstallSnapshot succeeded with an undeletable segment")
	}
	if st := fs.Stats(); st.Segments != 2 || st.SnapshotsInstalled != 0 {
		t.Fatalf("after the failed install: %+v, want the 2 surviving segments still registered and no install counted", st)
	}

	if err := os.RemoveAll(victim); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, victim); err != nil {
		t.Fatal(err)
	}
	if err := fs.InstallSnapshot(snap); err != nil {
		t.Fatalf("retry after clearing the obstacle: %v", err)
	}
	if st := fs.Stats(); st.Segments != 0 || st.SnapshotsInstalled != 1 || st.SnapshotSeq != 3 {
		t.Fatalf("after the retry: %+v", st)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(matches) != 0 {
		t.Fatalf("segments survived the retried install: %v", matches)
	}
}
