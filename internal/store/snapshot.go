package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"odlib/internal/core"
)

// snapshotName is the snapshot file inside a shard directory; writes go to
// a sibling temp file and land by atomic rename, so the name always points
// at a complete snapshot or nothing.
const snapshotName = "snapshot.json"

// Snapshot is a point-in-time copy of a shard's declared OD set: the state
// after applying every WAL record up to and including Seq. Recovery loads it
// and replays only records with a later sequence number. Gen pins the
// catalog generation at the cut point, so a recovered (or replica-bootstrapped)
// catalog resumes the same generation trajectory instead of restarting from
// zero — the number verdict stamps and client caches key on. Snapshots from
// pre-generation deployments decode with Gen zero: recovery counts loading
// their set as one generation and each effective replayed record as one more.
type Snapshot struct {
	Seq uint64    `json:"seq"`
	Gen uint64    `json:"gen,omitempty"`
	ODs []core.OD `json:"ods"`
}

// writeSnapshot durably replaces the shard's snapshot: marshal, write and
// fsync a temp file, rename it over the live name, fsync the directory. A
// crash at any point leaves either the old or the new snapshot intact —
// never a partial one. A failed write removes its temp file instead of
// leaving it to rot in the shard directory (recovery additionally sweeps
// any *.tmp a crash stranded).
func writeSnapshot(dir string, snap Snapshot) error {
	b, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, snapshotName+".tmp")
	final := filepath.Join(dir, snapshotName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// sweepTemp removes orphaned *.tmp files that a crash between a snapshot's
// temp write and its rename stranded in the shard directory. Runs during
// recovery, before anything else reads the directory — temp files are by
// contract incomplete, so deleting them can never lose durable state.
func sweepTemp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// loadSnapshot reads the shard's snapshot; ok is false when none exists yet.
// A snapshot that exists but does not decode is a hard error: unlike a torn
// WAL tail (an expected crash artifact), a half-present snapshot cannot
// occur under the atomic-rename protocol, so silently ignoring one would
// silently drop the whole constraint set.
func loadSnapshot(dir string) (Snapshot, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return Snapshot{}, false, nil
	}
	if err != nil {
		return Snapshot{}, false, err
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return Snapshot{}, false, fmt.Errorf("store: corrupt snapshot in %s: %w", dir, err)
	}
	return snap, true, nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
