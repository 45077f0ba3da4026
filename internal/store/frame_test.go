package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The frame format is frozen: these are the bytes the commit before the
// segment-log merge wrote, checked in. goldenFrame is encodeFrame of
// goldenRecord; testdata/parent-shard is a shard directory that commit's
// Store wrote (four records, one segment).
const goldenFrame = "51000000918a991d7b22736571223a372c226f70223a226261746368222c226f6473223a5b225b415d202d5c7530303365205b425d225d2c2272656d6f766573223a5b225b422c20435d202d5c7530303365205b445d225d7d"

func goldenRecord(t *testing.T) Record {
	return Record{Seq: 7, Op: OpBatch, ODs: mustODs(t, "[A] -> [B]"), Removes: mustODs(t, "[B, C] -> [D]")}
}

func goldenSegment(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-shard", segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFrameFormatIsFrozen(t *testing.T) {
	frame, err := encodeFrame(goldenRecord(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != goldenFrame {
		t.Fatalf("encodeFrame changed the wire format:\n got %s\nwant %s", got, goldenFrame)
	}
	recs, consumed, err := DecodeFrames(frame)
	if err != nil || consumed != int64(len(frame)) || len(recs) != 1 || !reflect.DeepEqual(recs[0], goldenRecord(t)) {
		t.Fatalf("golden frame decodes to %+v (consumed %d, err %v)", recs, consumed, err)
	}
}

// TestParentCommitShardRecovers: a directory the previous commit wrote
// recovers to the same records through both openers, byte-for-byte intact.
func TestParentCommitShardRecovers(t *testing.T) {
	raw := goldenSegment(t)
	want, consumed, err := DecodeFrames(raw)
	if err != nil || consumed != int64(len(raw)) || len(want) != 4 {
		t.Fatalf("golden segment decodes to %d records (consumed %d of %d, err %v)", len(want), consumed, len(raw), err)
	}
	if want[3].Op != OpBatch || len(want[3].ODs) != 2 || len(want[3].Removes) != 1 {
		t.Fatalf("golden segment's last record is %+v", want[3])
	}
	open := map[string]func(dir string) ([]Record, func() error, error){
		"Open": func(dir string) ([]Record, func() error, error) {
			s, _, replay, err := Open(dir, Options{})
			if err != nil {
				return nil, nil, err
			}
			return replay, s.Close, nil
		},
		"OpenFollower": func(dir string) ([]Record, func() error, error) {
			fs, _, replay, err := OpenFollower(dir)
			if err != nil {
				return nil, nil, err
			}
			return replay, fs.Close, nil
		},
	}
	for name, opener := range open {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			replay, closer, err := opener(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replay, want) {
				t.Fatalf("recovered %+v, want %+v", replay, want)
			}
			if err := closer(); err != nil {
				t.Fatal(err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
				t.Fatalf("recovery rewrote the segment (err %v)", err)
			}
		})
	}
}

// feedChunked runs b through the pending-tail loop recovery and replication
// share, split at the given points, and reports what one DecodeFrames call
// over the whole input reports: the records, the offset of the last whole
// frame, and whether a bad frame stopped it.
func feedChunked(b []byte, cuts ...int) (recs []Record, good int64, bad bool) {
	l := &segLog{cur: segment{index: 1}}
	prev := 0
	for _, cut := range append(cuts, len(b)) {
		chunk, err := l.feed(b[prev:cut])
		recs = append(recs, chunk...)
		prev = cut
		if err != nil {
			bad = true
			break
		}
	}
	return recs, l.cur.size - int64(len(l.tail)), bad
}

func FuzzDecodeFrames(f *testing.F) {
	seg := goldenSegment(f)
	ends := []int{60 + frameHeaderLen} // first frame of the golden segment
	f.Add(seg, uint16(0))
	f.Add(seg, uint16(ends[0]+3))                          // split inside the second header
	f.Add(seg[:5], uint16(2))                              // torn header
	f.Add(seg[:ends[0]+frameHeaderLen+9], uint16(ends[0])) // torn payload
	flipped := append([]byte(nil), seg...)
	flipped[5] ^= 0x40 // a CRC byte of the first frame
	f.Add(flipped, uint16(40))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, seg...), uint16(4)) // oversized length word
	notJSON, _ := hex.DecodeString("03000000" + "c2412435" + "616263")           // CRC-valid "abc"
	f.Add(append(append([]byte(nil), seg[:ends[0]]...), notJSON...), uint16(ends[0]+1))

	f.Fuzz(func(t *testing.T, b []byte, at uint16) {
		recs, consumed, err := DecodeFrames(b)
		if consumed < 0 || consumed > int64(len(b)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(b))
		}
		if err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("error %v is not ErrBadFrame", err)
		}
		again, reconsumed, rerr := DecodeFrames(b[:consumed])
		if rerr != nil || reconsumed != consumed || !reflect.DeepEqual(again, recs) {
			t.Fatalf("decoding the consumed prefix again: %d records, consumed %d, err %v; first pass %d records, consumed %d",
				len(again), reconsumed, rerr, len(recs), consumed)
		}
		// Chunking invariance: recovery reads in chunks and replication
		// fetches in chunks, wherever they happen to end.
		cut := int(at) % (len(b) + 1)
		for _, cuts := range [][]int{{cut}, {cut / 2, cut}} {
			crecs, good, bad := feedChunked(b, cuts...)
			if !reflect.DeepEqual(crecs, recs) || good != consumed || bad != (err != nil) {
				t.Fatalf("split at %v: %d records, good offset %d, bad=%v; one call: %d records, consumed %d, err %v",
					cuts, len(crecs), good, bad, len(recs), consumed, err)
			}
		}
	})
}
