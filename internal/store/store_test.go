package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"odlib/internal/core"
)

func mustODs(t *testing.T, stmts ...string) []core.OD {
	t.Helper()
	var out []core.OD
	for _, s := range stmts {
		od, err := core.ParseOD(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, od)
	}
	return out
}

// appendWait appends one declare record and waits for its group commit.
func appendWait(t *testing.T, s *Store, stmts ...string) uint64 {
	t.Helper()
	p, seq, err := s.AppendBatch(mustODs(t, stmts...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	return seq
}

// fixedSource is a compactor source answering a predetermined cut point.
func fixedSource(seq uint64, ods []core.OD) Source {
	return func() (uint64, uint64, []core.OD) { return seq, seq, ods }
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, snap, replay, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 0 || len(replay) != 0 {
		t.Fatalf("fresh store recovered snap=%+v replay=%d", snap, len(replay))
	}
	p1, seq1, err := s.AppendBatch(mustODs(t, "[A] -> [B]", "[B] -> [C]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, seq2, err := s.AppendBatch(nil, mustODs(t, "[A] -> [B]"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if seq1 != 1 || seq2 != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", seq1, seq2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, snap2, replay2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if snap2.Seq != 0 {
		t.Fatalf("no snapshot was written, got seq %d", snap2.Seq)
	}
	if len(replay2) != 2 {
		t.Fatalf("recovered %d records, want 2", len(replay2))
	}
	if replay2[0].Op != OpDeclare || len(replay2[0].ODs) != 2 ||
		replay2[0].ODs[0].String() != "[A] -> [B]" {
		t.Fatalf("record 1 = %+v", replay2[0])
	}
	if replay2[1].Op != OpRemove || replay2[1].Seq != 2 {
		t.Fatalf("record 2 = %+v", replay2[1])
	}
	if got := s2.Seq(); got != 2 {
		t.Fatalf("recovered seq %d, want 2", got)
	}
}

func TestSnapshotAndReplaySuffix(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendWait(t, s, fmt.Sprintf("[A%d] -> [A%d]", i, i+1))
	}
	// Compact at seq 5 with some state, then two more records.
	s.StartCompactor(fixedSource(5, mustODs(t, "[A0] -> [A1]")))
	if _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 7; i++ {
		appendWait(t, s, fmt.Sprintf("[A%d] -> [A%d]", i, i+1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, snap, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if snap.Seq != 5 || len(snap.ODs) != 1 {
		t.Fatalf("snapshot = %+v, want seq 5 with 1 OD", snap)
	}
	if len(replay) != 2 || replay[0].Seq != 6 || replay[1].Seq != 7 {
		t.Fatalf("replay = %+v, want seqs 6 and 7", replay)
	}
	st := s2.Stats()
	if st.Recovery.SnapshotSeq != 5 || st.Recovery.Replayed != 2 {
		t.Fatalf("recovery stats = %+v", st.Recovery)
	}
}

// TestReplaySkipsCoveredRecords simulates a crash between snapshot rename
// and covered-segment deletion: the log still holds records the snapshot
// already covers, and recovery must not apply them twice.
func TestReplaySkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendWait(t, s, fmt.Sprintf("[B%d] -> [B%d]", i, i+1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand, leaving the segments in place — the crash window.
	if err := writeSnapshot(dir, Snapshot{Seq: 3, ODs: mustODs(t, "[B0] -> [B1]")}); err != nil {
		t.Fatal(err)
	}
	s2, snap, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if snap.Seq != 3 {
		t.Fatalf("snapshot seq = %d", snap.Seq)
	}
	if len(replay) != 1 || replay[0].Seq != 4 {
		t.Fatalf("replay = %+v, want only seq 4", replay)
	}
}

func TestCorruptSnapshotIsAHardError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot should fail Open, not silently drop state")
	}
}

// TestSweepOrphanedTempFiles: a crash between a snapshot's temp write and
// its rename strands snapshot.json.tmp; recovery must remove it (and any
// other *.tmp) instead of letting them accumulate forever.
func TestSweepOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotName + ".tmp", "stray.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("orphaned temp file %s survived recovery", e.Name())
		}
	}
}

// TestSnapshotFailureRemovesTempFile: a failed snapshot write must not
// leave its temp file behind.
func TestSnapshotFailureRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	// Make the rename fail: the final name is occupied by a non-empty
	// directory, which rename(2) refuses to replace.
	if err := os.MkdirAll(filepath.Join(dir, snapshotName, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, Snapshot{Seq: 1, ODs: mustODs(t, "[A] -> [B]")}); err == nil {
		t.Fatal("snapshot over a directory should fail")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after failed snapshot (stat err %v)", err)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 32
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := s.AppendBatch(mustODs(t, fmt.Sprintf("[C%d] -> [D%d]", i, i)), nil)
			if err == nil {
				err = p.Wait()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.WALRecords != writers {
		t.Fatalf("recorded %d, want %d", st.WALRecords, writers)
	}
	if st.CommitBatches > st.WALRecords {
		t.Fatalf("batches %d exceed records %d", st.CommitBatches, st.WALRecords)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != writers {
		t.Fatalf("recovered %d records, want %d", len(replay), writers)
	}
}

// TestOversizedRecordRejected: a record the recovery scan would discard as
// corruption must be rejected at append time, never acknowledged.
func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	huge := core.OD{
		LHS: core.List{core.Attribute(strings.Repeat("a", maxRecordBytes))},
		RHS: core.L("B"),
	}
	if _, _, err := s.AppendBatch([]core.OD{huge}, nil); err == nil {
		t.Fatal("oversized record should be rejected at append, not truncated at recovery")
	}
	// The store stays usable for sane records.
	appendWait(t, s, "[A] -> [B]")
}

// TestStickyWALFailure: once a commit fails, the failure is acknowledged to
// the waiter, surfaced in Stats, and every later append fails fast.
func TestStickyWALFailure(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Yank the file out from under the committer.
	if err := s.log.f.Close(); err != nil {
		t.Fatal(err)
	}
	p, _, err := s.AppendBatch(mustODs(t, "[A] -> [B]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("commit against a closed file should fail the waiter")
	}
	if _, _, err := s.AppendBatch(mustODs(t, "[B] -> [C]"), nil); err == nil {
		t.Fatal("appends after a sticky failure should fail fast")
	}
	if st := s.Stats(); st.WALError == "" {
		t.Fatalf("sticky WAL failure not surfaced in stats: %+v", st)
	}
}

// TestFailWALInjection: the fault-injection hook must degrade the store the
// same way a real disk death does — failed appends, WALError in Stats.
func TestFailWALInjection(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, s, "[A] -> [B]")
	s.FailWAL(fmt.Errorf("drill: disk died"))
	if _, _, err := s.AppendBatch(mustODs(t, "[B] -> [C]"), nil); err == nil {
		t.Fatal("append after FailWAL should fail fast")
	}
	if st := s.Stats(); !strings.Contains(st.WALError, "drill") {
		t.Fatalf("injected failure not surfaced: %+v", st)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendBatch(mustODs(t, "[A] -> [B]"), nil); err == nil {
		t.Fatal("append after close should fail")
	}
}

// frameEnds parses raw WAL segment bytes and returns the byte offset at
// which each frame ends, mirroring the on-disk format independently of
// DecodeFrames.
func frameEnds(t *testing.T, raw []byte) []int64 {
	t.Helper()
	var ends []int64
	off := int64(0)
	for off+frameHeaderLen <= int64(len(raw)) {
		n := int64(binary.LittleEndian.Uint32(raw[off : off+4]))
		if off+frameHeaderLen+n > int64(len(raw)) {
			break
		}
		off += frameHeaderLen + n
		ends = append(ends, off)
	}
	if off != int64(len(raw)) {
		t.Fatalf("WAL has %d trailing bytes after the last whole frame", int64(len(raw))-off)
	}
	return ends
}

// TestTornWriteRecovery is the single-segment crash harness: it cuts the
// active segment at every byte offset and asserts recovery is
// prefix-consistent — no panic, no decode of garbage, and every
// acknowledged record whose frame lies entirely before the cut survives.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		// Vary record sizes so cuts land in headers, payloads and boundaries.
		stmts := []string{fmt.Sprintf("[T%d] -> [T%d]", i, i+1)}
		for j := 0; j < i; j++ {
			stmts = append(stmts, fmt.Sprintf("[T%d, X%d] -> [Y%d]", i, j, j))
		}
		appendWait(t, s, stmts...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, raw)
	if len(ends) != n {
		t.Fatalf("wrote %d frames, found %d", n, len(ends))
	}

	for cut := int64(0); cut <= int64(len(raw)); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segmentName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, replay, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		// Acknowledged records fully on disk before the cut must survive.
		wantComplete := 0
		for _, end := range ends {
			if end <= cut {
				wantComplete++
			}
		}
		if len(replay) != wantComplete {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(replay), wantComplete)
		}
		for i, rec := range replay {
			if rec.Seq != uint64(i+1) || len(rec.ODs) != i+1 {
				t.Fatalf("cut at %d: record %d = %+v", cut, i, rec)
			}
		}
		// Recovery must leave a usable store: the next append goes through.
		p, seq, err := s2.AppendBatch(mustODs(t, "[Z] -> [W]"), nil)
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := p.Wait(); err != nil {
			t.Fatalf("cut at %d: commit after recovery: %v", cut, err)
		}
		if seq != uint64(wantComplete)+1 {
			t.Fatalf("cut at %d: post-recovery seq %d, want %d", cut, seq, wantComplete+1)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailWithCorruptCRC flips a byte in the last frame's payload: the
// scan must drop exactly that frame and keep the earlier ones.
func TestTornTailWithCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendWait(t, s, fmt.Sprintf("[K%d] -> [K%d]", i, i+1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, raw)
	raw[ends[1]+frameHeaderLen+2] ^= 0xff // inside the last frame's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(replay) != 2 {
		t.Fatalf("recovered %d records after CRC corruption, want 2", len(replay))
	}
	if st := s2.Stats(); st.Recovery.TornBytes == 0 {
		t.Fatal("torn bytes not reported")
	}
}

// --- multi-segment harness -------------------------------------------------

// populateSegments appends n single-OD records to a store configured to
// rotate every segRecords records, waiting out each commit so segment
// boundaries are deterministic, and returns the store.
func populateSegments(t *testing.T, dir string, n, segRecords int) *Store {
	t.Helper()
	s, _, _, err := Open(dir, Options{Fsync: true, SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		appendWait(t, s, fmt.Sprintf("[S%d] -> [S%d]", i, i+1))
	}
	return s
}

// TestMultiSegmentRotationAndRecovery: appends rotate the log across
// segments; a restart with NO compaction (the crash-between-rotate-and-
// compact window) replays every record from every segment in order.
func TestMultiSegmentRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 7, 2)
	st := s.Stats()
	if st.Rotations != 3 || st.WALSegments != 4 {
		t.Fatalf("7 records at 2/segment: rotations %d segments %d, want 3 and 4", st.Rotations, st.WALSegments)
	}
	if st.WALRecords != 7 {
		t.Fatalf("records across segments = %d, want 7", st.WALRecords)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, segmentName(uint64(i)))); err != nil {
			t.Fatalf("segment %d missing: %v", i, err)
		}
	}

	s2, snap, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if snap.Seq != 0 {
		t.Fatalf("no snapshot exists, got seq %d", snap.Seq)
	}
	if len(replay) != 7 {
		t.Fatalf("recovered %d records across segments, want 7", len(replay))
	}
	for i, rec := range replay {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d — segment order broken", i, rec.Seq)
		}
	}
	if rec := s2.Stats().Recovery; rec.Segments != 4 {
		t.Fatalf("recovery saw %d segments, want 4", rec.Segments)
	}
}

// TestMultiSegmentTornTail is the crash harness extended to segmented logs:
// the LAST segment is cut at every byte offset while earlier (sealed)
// segments stay intact — every record in a sealed segment must survive
// every cut, and only the last segment's tail is ever dropped.
func TestMultiSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 6, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Segments 1-2 hold records 1-4 sealed; segment 3 holds records 5-6.
	// (The rotation after record 6 created an empty segment 4 — a crash
	// tearing segment 3 means segment 4 was never created, so the harness
	// replicates only 1-3.)
	sealedRecords := 4
	var sealedRaw [][]byte
	for i := 1; i <= 2; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, segmentName(uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		sealedRaw = append(sealedRaw, raw)
	}
	last, err := os.ReadFile(filepath.Join(dir, segmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, last)
	if len(ends) != 2 {
		t.Fatalf("last segment holds %d frames, want 2", len(ends))
	}

	for cut := int64(0); cut <= int64(len(last)); cut++ {
		cutDir := t.TempDir()
		for i, raw := range sealedRaw {
			if err := os.WriteFile(filepath.Join(cutDir, segmentName(uint64(i+1))), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(cutDir, segmentName(3)), last[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, replay, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		want := sealedRecords
		for _, end := range ends {
			if end <= cut {
				want++
			}
		}
		if len(replay) != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(replay), want)
		}
		for i, rec := range replay {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("cut at %d: record %d has seq %d", cut, i, rec.Seq)
			}
		}
		// The store must keep accepting appends after the torn-tail cut.
		p, seq, err := s2.AppendBatch(mustODs(t, "[Z] -> [W]"), nil)
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := p.Wait(); err != nil {
			t.Fatalf("cut at %d: commit after recovery: %v", cut, err)
		}
		if seq != uint64(want)+1 {
			t.Fatalf("cut at %d: post-recovery seq %d, want %d", cut, seq, want+1)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashAfterSnapshotBeforeSegmentDeletion: the snapshot landed durably
// but the crash hit before the covered segments were deleted — recovery
// loads the snapshot and replays only the records past it, ignoring the
// covered (redundant) segments without error.
func TestCrashAfterSnapshotBeforeSegmentDeletion(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 6, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, Snapshot{Seq: 4, ODs: mustODs(t, "[S0] -> [S4]")}); err != nil {
		t.Fatal(err)
	}
	s2, snap, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if snap.Seq != 4 || len(snap.ODs) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(replay) != 2 || replay[0].Seq != 5 || replay[1].Seq != 6 {
		t.Fatalf("replay = %+v, want seqs 5 and 6 only", replay)
	}
}

// TestMissingMiddleSegmentIsHardError: deleting a sealed segment that the
// snapshot does NOT cover leaves a sequence gap — acknowledged records are
// gone, and recovery must refuse to serve the hole-ridden state.
func TestMissingMiddleSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 6, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("missing middle segment should fail Open, not drop acknowledged records")
	}
}

// TestTornSealedSegmentIsHardError: torn bytes are a legitimate crash
// artifact only in the LAST segment; mid-log damage is corruption and must
// refuse recovery.
func TestTornSealedSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 6, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("torn frame in a sealed segment should fail Open")
	}
}

// TestCompactionRemovesCoveredSegments: a compaction at the durable
// watermark snapshots the state, rotates the covered active segment, and
// deletes every covered segment — leaving an empty log whose next restart
// recovers purely from the snapshot.
func TestCompactionRemovesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 7, 2)
	var (
		mu  sync.Mutex
		seq uint64 = 7
		ods        = mustODs(t, "[S0] -> [S7]")
	)
	s.StartCompactor(func() (uint64, uint64, []core.OD) {
		mu.Lock()
		defer mu.Unlock()
		return seq, seq, ods
	})
	res, err := s.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 7 || res.SegmentsRemoved < 3 {
		t.Fatalf("compaction = %+v, want cut at 7 removing at least the 3 sealed segments", res)
	}
	st := s.Stats()
	if st.WALRecords != 0 || st.WALBytes != 0 {
		t.Fatalf("log not empty after full compaction: %+v", st)
	}
	if st.Snapshots != 1 || st.SnapshotSeq != 7 || st.SinceSnapshot != 0 {
		t.Fatalf("snapshot bookkeeping wrong: %+v", st)
	}
	// Appends keep flowing into the fresh active segment, and the next
	// compaction covers them too.
	mu.Lock()
	seq = 8
	ods = append(ods, mustODs(t, "[S7] -> [S8]")...)
	mu.Unlock()
	if got := appendWait(t, s, "[S7] -> [S8]"); got != 8 {
		t.Fatalf("post-compaction append got seq %d, want 8", got)
	}
	if _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, snap, replay, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if snap.Seq != 8 || len(snap.ODs) != 2 || len(replay) != 0 {
		t.Fatalf("post-compaction recovery: snap %+v replay %d, want snapshot-only at seq 8", snap, len(replay))
	}
}

// TestWritersNotBlockedDuringCompaction is the acceptance test for taking
// snapshots off the apply path: with a compaction deliberately stalled
// mid-flight (its source blocks), appends must still stage, commit and
// acknowledge — the writer path shares no lock with snapshot I/O.
func TestWritersNotBlockedDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendWait(t, s, "[A0] -> [A1]")

	entered := make(chan struct{})
	release := make(chan struct{})
	s.StartCompactor(func() (uint64, uint64, []core.OD) {
		close(entered)
		<-release
		return 1, 1, mustODs(t, "[A0] -> [A1]")
	})
	compacted := make(chan error, 1)
	go func() {
		_, err := s.CompactNow()
		compacted <- err
	}()
	<-entered // the compaction is now in progress and stalled

	done := make(chan struct{})
	go func() {
		for i := 1; i <= 5; i++ {
			appendWait(t, s, fmt.Sprintf("[A%d] -> [A%d]", i, i+1))
		}
		close(done)
	}()
	select {
	case <-done:
		// Writers proceeded while the compaction was stalled: the win.
	case <-time.After(5 * time.Second):
		t.Fatal("appends blocked behind an in-progress compaction")
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Seq != 6 || st.Snapshots != 1 {
		t.Fatalf("after stalled compaction: %+v, want seq 6 with 1 snapshot", st)
	}
}

// TestLegacySingleFileWALRefused: a data dir written by the pre-segment
// store (one wal.log) is refused by both openers, with an error naming the
// file — opening around it would silently ignore its acknowledged records.
func TestLegacySingleFileWALRefused(t *testing.T) {
	dir := t.TempDir()
	// Forge a legacy log: frames are format-identical, only the name differs.
	s := populateSegments(t, dir, 3, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, segmentName(1)), filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "wal.log") {
		t.Fatalf("Open of a legacy directory = %v, want a refusal naming wal.log", err)
	}
	if _, _, _, err := OpenFollower(dir); err == nil || !strings.Contains(err.Error(), "wal.log") {
		t.Fatalf("OpenFollower of a legacy directory = %v, want a refusal naming wal.log", err)
	}
	// Refusing must not have touched the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Fatalf("refused open left %v behind", entries)
	}
}

// TestBacklogCompactsAfterRestart: a restart that replays a backlog already
// past the compaction cadence must compact on its own — appends are the
// only other kick source, and a crash/restart loop with sparse writes would
// otherwise grow the log and recovery time without bound.
func TestBacklogCompactsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s := populateSegments(t, dir, 6, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, replay, err := Open(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(replay) != 6 {
		t.Fatalf("replayed %d, want the 6-record backlog", len(replay))
	}
	s2.StartCompactor(fixedSource(6, mustODs(t, "[S0] -> [S6]")))
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s2.Stats()
		if st.Snapshots >= 1 && st.WALRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never compacted without a fresh mutation: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
