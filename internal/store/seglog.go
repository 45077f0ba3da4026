package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// maxRecordBytes bounds a frame's payload. Store enforces it on the write
// side, so on the read side a longer length word can only be corruption and
// is treated as a torn tail. The bound comfortably exceeds anything a
// size-capped HTTP batch can expand to (the server caps bodies at 8 MiB and
// statement expansion is a small constant factor); without the write-side
// check, an oversized record would be acknowledged durable and then silently
// truncated away on the next open.
const maxRecordBytes = 64 << 20

// frameHeaderLen is the length + CRC prefix of every frame.
const frameHeaderLen = 8

// ErrBadFrame reports a CRC-invalid or undecodable frame in segment bytes.
// Unlike a SHORT frame (simply not enough bytes yet — more arrive on the next
// fetch), a bad frame in fetched bytes means the local tail diverged from the
// leader's segment (a torn local write, or corruption in flight that slipped
// past transport checks). The fix is mechanical: TruncateTail back to the
// last parsed frame boundary and refetch from there. Recovery meets the same
// error at a crash-torn tail and applies the same fix, minus the refetch.
var ErrBadFrame = errors.New("store: bad WAL frame in fetched segment bytes")

// encodeFrame renders one record as a wire frame.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	return frame, nil
}

// DecodeFrames parses complete frames from the front of b, returning the
// decoded records and how many bytes they consumed. A trailing incomplete
// frame is not an error — consumed simply stops before it. A frame that is
// complete but invalid (oversized length word, CRC mismatch, undecodable
// payload) returns the records parsed before it along with ErrBadFrame.
//
// It is the only frame decoder: replication feeds it fetched bytes and
// recovery feeds it file bytes, both through segLog.feed, which is sound
// because the result does not depend on where the input was chunked.
func DecodeFrames(b []byte) (recs []Record, consumed int64, err error) {
	for {
		rest := b[consumed:]
		if len(rest) < frameHeaderLen {
			return recs, consumed, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordBytes {
			return recs, consumed, fmt.Errorf("%w: frame length %d exceeds limit", ErrBadFrame, n)
		}
		if len(rest) < frameHeaderLen+int(n) {
			return recs, consumed, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, consumed, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, consumed, fmt.Errorf("%w: %w", ErrBadFrame, err)
		}
		recs = append(recs, rec)
		consumed += frameHeaderLen + int64(n)
	}
}

// segmentName renders a segment file name; indexes are monotonic per shard,
// start at 1, and are zero-padded so lexicographic order equals log order.
func segmentName(index uint64) string {
	return fmt.Sprintf("wal-%06d.log", index)
}

// parseSegmentName extracts a segment index, reporting whether the name is a
// segment file at all.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if digits == "" {
		return 0, false
	}
	var idx uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

// segment is the metadata of one log segment. firstSeq/lastSeq are zero
// while the segment holds no records. Sealed segments are immutable on disk;
// only the open (highest-index) segment ever takes bytes.
type segment struct {
	index    uint64
	path     string // empty on a memory-only log
	size     int64
	records  uint64
	firstSeq uint64
	lastSeq  uint64
}

// live reports whether the segment holds records a snapshot at seq does not
// cover — what keeps it from being dropped, and what counts as compaction lag.
func (sg segment) live(seq uint64) bool { return sg.records > 0 && sg.lastSeq > seq }

// segLog is the segment log of one shard, and the only code that knows
// segment file names, the recovery scan and its torn-tail rule, how bytes
// reach a segment, what sealing guarantees and how covered segments go away.
// Store (numbers records, group-commits them, rotates at thresholds) and
// FollowerStore (ingests pre-framed bytes at an offset, durably or not) are
// policies on it. With an empty dir the log is memory only: the same
// bookkeeping, nothing persisted — a pure-cache follower.
//
// A segLog has no lock of its own; its owner's mutex (Store.mu,
// FollowerStore.mu) guards every field. write and sync alone may run
// without it, under whatever serializes the owner's file I/O: they touch
// only f and cur.size, which change solely in calls that are themselves
// serialized with file I/O.
type segLog struct {
	dir     string
	f       *os.File  // file of the open segment; nil when none is open or dir is empty
	cur     segment   // the open segment; index 0 when none is open
	tail    []byte    // fed bytes of cur past its last whole frame; size counts them
	sealed  []segment // ascending index order; dropCovered pops the front
	last    uint64    // highest index ever opened; the next segment must exceed it
	removed uint64    // segments dropCovered has deleted
}

// scanChunk is how much of a segment recovery reads at a time. Segments may
// be unbounded (Options.SegmentBytes < 0), so recovery never holds a whole
// one — only a chunk plus the frame straddling its end.
const scanChunk = 256 << 10

// openSegLog scans every segment in dir in log order, feeding each through
// the same decode loop replication uses, and leaves the highest-index one
// open. A torn tail is cut in the LAST segment only — the one a crash can
// legitimately tear; in an earlier segment it is a hard error, because
// segments seal only after complete writes, so mid-log damage is corruption
// and not a crash artifact. Every scanned segment is fsynced: what the scan
// just saw, a fresh truncation included, must survive power loss, or a later
// recovery would hard-error on (or resurrect) bytes this one accepted. Clean
// pages make that fsync a no-op. It returns the records of all segments in
// log order and how many trailing bytes were cut.
//
// A directory holding the pre-segment single-file log is refused rather than
// opened around it: ignoring wal.log would silently drop acknowledged records.
func openSegLog(dir string) (l *segLog, recs []Record, torn int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Name() == "wal.log" {
			return nil, nil, 0, fmt.Errorf("store: %s holds a single-file wal.log from a pre-segment release, which is no longer read; opening the directory would silently ignore its acknowledged records", dir)
		}
		if idx, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{index: idx, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	l = &segLog{dir: dir}
	var buf []byte
	if len(segs) > 0 {
		buf = make([]byte, scanChunk)
	}
	for i, sg := range segs {
		if l.f, err = os.OpenFile(sg.path, os.O_RDWR, 0o644); err != nil {
			return nil, nil, 0, err
		}
		l.cur, l.tail, l.last = sg, nil, sg.index
		var srecs []Record
		srecs, torn, err = l.scan(buf)
		if err == nil && torn > 0 {
			if i != len(segs)-1 {
				err = fmt.Errorf("store: sealed WAL segment %s carries %d torn bytes mid-log; segments seal only after complete writes, so this is corruption, not a crash artifact", sg.path, torn)
			} else if err = l.truncateTail(); err != nil {
				err = fmt.Errorf("store: truncating torn WAL tail: %w", err)
			}
		}
		if err == nil {
			if err = l.f.Sync(); err != nil {
				err = fmt.Errorf("store: fsyncing recovered WAL segment %s: %w", sg.path, err)
			}
		}
		if err != nil {
			l.f.Close()
			return nil, nil, 0, err
		}
		recs = append(recs, srecs...)
		if i != len(segs)-1 {
			l.f.Close()
			l.sealed = append(l.sealed, l.cur)
			l.f, l.cur = nil, segment{}
		}
	}
	return l, recs, torn, nil
}

// scan feeds the open segment's file through feed a chunk at a time, to the
// end of the file or the first bad frame — which ends the scan exactly like
// the end of the file does: everything from it on is tail. It returns the
// segment's records and how many bytes lie past its last whole frame.
func (l *segLog) scan(buf []byte) (recs []Record, torn int64, err error) {
	st, err := l.f.Stat()
	if err != nil {
		return nil, 0, err
	}
	r := io.NewSectionReader(l.f, 0, st.Size())
	for {
		n, rerr := io.ReadFull(r, buf)
		chunk, ferr := l.feed(buf[:n])
		recs = append(recs, chunk...)
		if ferr != nil || errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			return recs, st.Size() - (l.cur.size - int64(len(l.tail))), nil
		}
		if rerr != nil {
			return nil, 0, rerr
		}
	}
}

// feed is the pending-tail loop: it takes b as the next bytes of the open
// segment, decodes the whole frames that tail+b now completes, keeps the
// rest as the new tail and advances the segment's metadata. ErrBadFrame
// comes with the records before the bad frame; the bad frame stays in tail
// for truncateTail to cut. b is not retained.
func (l *segLog) feed(b []byte) ([]Record, error) {
	buf := b
	if len(l.tail) > 0 {
		l.tail = append(l.tail, b...)
		buf = l.tail
	}
	recs, consumed, err := DecodeFrames(buf)
	l.tail = append(l.tail[:0], buf[consumed:]...)
	var first, last uint64
	if n := len(recs); n > 0 {
		first, last = recs[0].Seq, recs[n-1].Seq
	}
	l.grew(int64(len(b)), uint64(len(recs)), first, last)
	return recs, err
}

// grew advances the open segment's metadata by n bytes holding records
// records with seqs first..last. Metadata describes what a recovery scan of
// the segment will find, so the leader calls it only once a write succeeded.
func (l *segLog) grew(n int64, records, first, last uint64) {
	l.cur.size += n
	if records == 0 {
		return
	}
	if l.cur.records == 0 {
		l.cur.firstSeq = first
	}
	l.cur.records += records
	l.cur.lastSeq = last
}

// write puts b at the end of the open segment's file without moving any
// metadata: grew (or feed) does that, once the caller knows the bytes count.
func (l *segLog) write(b []byte) error {
	if l.f == nil {
		return nil
	}
	_, err := l.f.WriteAt(b, l.cur.size)
	return err
}

// sync fsyncs the open segment's file.
func (l *segLog) sync() error { return l.f.Sync() }

// truncateTail cuts the open segment back to its last whole frame, dropping
// the unparsed tail — the move after ErrBadFrame, and after a crash tore the
// last write.
func (l *segLog) truncateTail() error {
	if len(l.tail) == 0 {
		return nil
	}
	good := l.cur.size - int64(len(l.tail))
	if l.f != nil {
		if err := l.f.Truncate(good); err != nil {
			return err
		}
	}
	l.cur.size, l.tail = good, nil
	return nil
}

// rotate seals the open segment, if there is one, and opens segment next in
// its place (0 opens none). Sealing is fsync + close, REGARDLESS of any
// per-commit fsync policy: recovery hard-errors on sealed-segment damage,
// which is sound only if a sealed segment's bytes are guaranteed to survive
// power loss. One directory fsync then covers both ends — the new segment's
// entry must be durable before anything is acknowledged out of it. A
// memory-only log keeps no sealed segments: there is nothing to read back.
func (l *segLog) rotate(next uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("store: sealing WAL segment %s: %w", l.cur.path, err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("store: sealing WAL segment %s: %w", l.cur.path, err)
		}
	}
	opened := segment{index: next}
	var f *os.File
	if l.dir != "" {
		if next != 0 {
			opened.path = filepath.Join(l.dir, segmentName(next))
			var err error
			if f, err = os.OpenFile(opened.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); err != nil {
				return fmt.Errorf("store: opening WAL segment %s: %w", opened.path, err)
			}
		}
		if err := syncDir(l.dir); err != nil {
			if f != nil {
				f.Close()
			}
			return fmt.Errorf("store: fsyncing WAL dir after rotation: %w", err)
		}
		if l.cur.index != 0 {
			l.sealed = append(l.sealed, l.cur)
		}
	}
	l.f, l.cur, l.tail = f, opened, nil
	if next > l.last {
		l.last = next
	}
	return nil
}

// dropCovered unlinks the sealed segments whose every record a durable
// snapshot at seq covers, oldest first, forgetting each only after its
// unlink succeeded — so metadata never claims less than the disk holds, and
// a failed unlink leaves a state the next call can resume from. Covered
// segments form a prefix of the sealed list (seqs ascend across segments);
// it stops at the first live one. When it returns n > 0 the caller owes one
// syncDir for the batch: a crash before it can resurrect any subset of the
// deleted segments, which recovery skips past the snapshot anyway.
func (l *segLog) dropCovered(seq uint64) (n int, err error) {
	for len(l.sealed) > 0 && !l.sealed[0].live(seq) {
		if err := os.Remove(l.sealed[0].path); err != nil {
			return n, err
		}
		l.sealed = l.sealed[1:]
		l.removed++
		n++
	}
	return n, nil
}

// lag counts sealed segments holding records past seq — the compactor's
// backlog, and the admission-control signal.
func (l *segLog) lag(seq uint64) int {
	lag := 0
	for _, sg := range l.sealed {
		if sg.live(seq) {
			lag++
		}
	}
	return lag
}

// totals sums the live segments: how many, their bytes and their records.
func (l *segLog) totals() (segments int, size int64, records uint64) {
	for _, sg := range l.sealed {
		size += sg.size
		records += sg.records
	}
	segments = len(l.sealed)
	if l.cur.index != 0 {
		segments++
	}
	return segments, size + l.cur.size, records + l.cur.records
}

// infos lists the live segments in log order, sealed first, the open one
// (if any) last.
func (l *segLog) infos() []SegmentInfo {
	infos := make([]SegmentInfo, 0, len(l.sealed)+1)
	for _, sg := range l.sealed {
		infos = append(infos, segInfo(sg, true))
	}
	if l.cur.index != 0 {
		infos = append(infos, segInfo(l.cur, false))
	}
	return infos
}

// find looks a live segment up by index.
func (l *segLog) find(index uint64) (sg segment, sealed, ok bool) {
	if index != 0 && index == l.cur.index {
		return l.cur, false, true
	}
	i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].index >= index })
	if i < len(l.sealed) && l.sealed[i].index == index {
		return l.sealed[i], true, true
	}
	return segment{}, false, false
}

// close closes the open segment's file, if any.
func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
