package router

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"odlib/internal/store"
)

// shipAll copies every leader segment into the follower router, the way the
// tailer would: raw byte ranges, seal when the leader sealed.
func shipAll(t *testing.T, leader *Router, follower *Router) {
	t.Helper()
	for name, ss := range leader.SegmentState() {
		if err := follower.NoteLeader(name, ss.AppliedSeq, ss.Generation); err != nil {
			t.Fatal(err)
		}
		for _, info := range ss.Segments {
			b, fresh, err := leader.ReadSegment(name, info.Index, 0, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := follower.FollowerIngest(name, info.Index, 0, b); err != nil {
				t.Fatalf("ingest %s/%d: %v", name, info.Index, err)
			}
			if fresh.Sealed {
				if err := follower.FollowerSeal(name, info.Index, fresh.Size); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	follower.NotePoll(nil)
}

func TestFollowerReplaysLeaderGenerationExactly(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader, err := Open(Options{DataDir: ldir})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Declare("sales", ods(t, "[month] -> [quarter]")); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Declare("sales", ods(t, "[quarter] -> [year]")); err != nil {
		t.Fatal(err)
	}
	// An ineffective mutation: same OD again. No generation bump on the
	// leader; the follower must not bump either.
	if _, err := leader.Declare("sales", ods(t, "[month] -> [quarter]")); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Remove("sales", ods(t, "[quarter] -> [year]")); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(Options{DataDir: fdir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	shipAll(t, leader, follower)

	lg, err := leader.GenerationOf("sales")
	if err != nil {
		t.Fatal(err)
	}
	fg, err := follower.GenerationOf("sales")
	if err != nil {
		t.Fatal(err)
	}
	if lg != fg {
		t.Fatalf("follower generation %d != leader %d", fg, lg)
	}

	// Same verdicts at the same generation.
	q := ods(t, "[month] -> [year]")
	lr, lgen, _, err := leader.ProveOne(context.Background(), "sales", q)
	if err != nil {
		t.Fatal(err)
	}
	fr, fgen, _, err := follower.ProveOne(context.Background(), "sales", q)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Implied != fr.Implied || lgen != fgen {
		t.Fatalf("leader (%v, gen %d) != follower (%v, gen %d)", lr.Implied, lgen, fr.Implied, fgen)
	}
	rs := follower.ReplicaStatuses()["sales"]
	if rs.LagRecords != 0 || rs.LagGenerations != 0 {
		t.Fatalf("caught-up follower reports lag %+v", rs)
	}
}

func TestLeaderWarmRestartPreservesGeneration(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Declare("", ods(t, "[a] -> [b]")); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Declare("", ods(t, "[b] -> [c]")); err != nil {
		t.Fatal(err)
	}
	// Snapshot, then one more mutation past the cut.
	if _, err := leader.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Declare("", ods(t, "[c] -> [d]")); err != nil {
		t.Fatal(err)
	}
	gen, err := leader.GenerationOf("")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.GenerationOf("")
	if err != nil {
		t.Fatal(err)
	}
	if got != gen {
		t.Fatalf("restarted generation = %d, want %d (pre-restart)", got, gen)
	}
}

func TestFollowerRejectsMutations(t *testing.T) {
	follower, err := Open(Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if _, err := follower.Declare("s", ods(t, "[a] -> [b]")); !IsReadOnly(err) {
		t.Fatalf("Declare on follower: %v, want IsReadOnly", err)
	}
	if _, err := follower.Remove("s", ods(t, "[a] -> [b]")); !IsReadOnly(err) {
		t.Fatalf("Remove on follower: %v, want IsReadOnly", err)
	}
	if _, err := follower.ApplyBatch([]BatchOp{{Schema: "s", ODs: ods(t, "[a] -> [b]")}}); !IsReadOnly(err) {
		t.Fatalf("ApplyBatch on follower: %v, want IsReadOnly", err)
	}
	if _, err := follower.SnapshotAll(); !IsReadOnly(err) {
		t.Fatalf("SnapshotAll on follower: %v, want IsReadOnly", err)
	}
	if err := follower.ReadOnlyError("x"); !IsReadOnly(err) {
		t.Fatalf("ReadOnlyError = %v", err)
	}
}

func TestCheckReadLag(t *testing.T) {
	leader, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Declare("s", ods(t, "[a] -> [b]")); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(Options{Follower: true, MaxLagRecords: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Never synced: proves refuse outright.
	if err := follower.CheckReadLag("s", 0); !IsLagExceeded(err) {
		t.Fatalf("unsynced CheckReadLag = %v, want IsLagExceeded", err)
	}
	if _, _, _, err := follower.ProveOne(context.Background(), "s", ods(t, "[a] -> [b]")); !IsLagExceeded(err) {
		t.Fatalf("unsynced ProveOne = %v, want IsLagExceeded", err)
	}

	shipAll(t, leader, follower)
	if err := follower.CheckReadLag("s", 0); err != nil {
		t.Fatalf("caught-up CheckReadLag = %v", err)
	}

	// Leader runs ahead without shipping: 3 new records, bound is 1.
	for _, stmt := range []string{"[b] -> [c]", "[c] -> [d]", "[d] -> [e]"} {
		if _, err := leader.Declare("s", ods(t, stmt)); err != nil {
			t.Fatal(err)
		}
	}
	ss := leader.SegmentState()["s"]
	if err := follower.NoteLeader("s", ss.AppliedSeq, ss.Generation); err != nil {
		t.Fatal(err)
	}
	if err := follower.CheckReadLag("s", 0); !IsLagExceeded(err) {
		t.Fatalf("over-lag CheckReadLag = %v, want IsLagExceeded", err)
	}
	// A client bound looser than the configured one cannot loosen it…
	if err := follower.CheckReadLag("s", 100); !IsLagExceeded(err) {
		t.Fatalf("client bound loosened the configured one: %v", err)
	}
	// …and the leader itself never refuses.
	if err := leader.CheckReadLag("s", 1); err != nil {
		t.Fatalf("leader CheckReadLag = %v", err)
	}

	// Catching up clears the refusal.
	shipAll(t, leader, follower)
	if err := follower.CheckReadLag("s", 0); err != nil {
		t.Fatalf("re-synced CheckReadLag = %v", err)
	}

	// Listings and generation reads serve at any lag.
	if _, err := follower.Listing("s"); err != nil {
		t.Fatalf("Listing on follower = %v", err)
	}
	if _, err := follower.GenerationOf("s"); err != nil {
		t.Fatalf("GenerationOf on follower = %v", err)
	}
}

func TestFollowerBootstrapFromSnapshot(t *testing.T) {
	leader, err := Open(Options{DataDir: t.TempDir(), Store: store.Options{SegmentRecords: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, stmt := range []string{"[a] -> [b]", "[b] -> [c]", "[c] -> [d]"} {
		if _, err := leader.Declare("s", ods(t, stmt)); err != nil {
			t.Fatal(err)
		}
	}
	// Compact: the snapshot covers everything; sealed segments are deleted.
	if _, err := leader.SnapshotOne("s"); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(Options{DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ss := leader.SegmentState()["s"]
	if err := follower.NoteLeader("s", ss.AppliedSeq, ss.Generation); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := leader.SegmentSnapshot("s")
	if err != nil || !ok {
		t.Fatalf("leader snapshot: ok=%v err=%v", ok, err)
	}
	if err := follower.FollowerBootstrap("s", snap); err != nil {
		t.Fatal(err)
	}
	// Ship whatever segments remain past the cut.
	shipAll(t, leader, follower)

	lg, _ := leader.GenerationOf("s")
	fg, _ := follower.GenerationOf("s")
	if lg != fg {
		t.Fatalf("bootstrapped generation %d != leader %d", fg, lg)
	}
	fr, _, _, err := follower.ProveOne(context.Background(), "s", ods(t, "[a] -> [d]"))
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Implied {
		t.Fatal("bootstrapped follower lost the transitive chain")
	}
	if follower.ReplicaStatuses()["s"].Bootstraps != 1 {
		t.Fatalf("bootstrap not counted: %+v", follower.ReplicaStatuses()["s"])
	}
}

func TestFollowerStatsReportLag(t *testing.T) {
	leader, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Declare("s", ods(t, "[a] -> [b]")); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(Options{Follower: true, MaxLagRecords: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	shipAll(t, leader, follower)

	st := follower.Stats()["s"]
	if st.Replica == nil {
		t.Fatal("follower Stats carries no replica status")
	}
	if !st.OK {
		t.Fatalf("caught-up follower unhealthy: %s", st.Reason)
	}

	// Run the leader ahead past the bound: healthz must flip with a
	// replication reason.
	for _, stmt := range []string{"[b] -> [c]", "[c] -> [d]"} {
		if _, err := leader.Declare("s", ods(t, stmt)); err != nil {
			t.Fatal(err)
		}
	}
	ss := leader.SegmentState()["s"]
	if err := follower.NoteLeader("s", ss.AppliedSeq, ss.Generation); err != nil {
		t.Fatal(err)
	}
	st = follower.Stats()["s"]
	if st.OK {
		t.Fatal("over-lag follower still reports healthy")
	}
	if st.Replica.LagRecords != 2 {
		t.Fatalf("lag records = %d, want 2", st.Replica.LagRecords)
	}
}

// TestFollowerKindsReportTheSameCounters: a durable and a pure-cache
// follower fed the same fetches — a re-sent overlap and a retired open
// segment included — report identical replica counters, and both carry the
// follower block on Stats (what /healthz serves).
func TestFollowerKindsReportTheSameCounters(t *testing.T) {
	leader, err := Open(Options{DataDir: t.TempDir(), Store: store.Options{SegmentRecords: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, stmt := range []string{"[a] -> [b]", "[b] -> [c]", "[c] -> [d]"} {
		if _, err := leader.Declare("s", ods(t, stmt)); err != nil {
			t.Fatal(err)
		}
	}
	ss := leader.SegmentState()["s"]
	if len(ss.Segments) != 2 || !ss.Segments[0].Sealed {
		t.Fatalf("leader segments = %+v, want one sealed and one open", ss.Segments)
	}

	statuses := map[string]ReplicaStatus{}
	for kind, dir := range map[string]string{"durable": t.TempDir(), "pure-cache": ""} {
		follower, err := Open(Options{DataDir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		sealed, open := ss.Segments[0], ss.Segments[1]
		b, _, err := leader.ReadSegment("s", sealed.Index, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range [][]byte{b[:len(b)/2], b} { // the second fetch re-sends the first half
			if _, err := follower.FollowerIngest("s", sealed.Index, 0, chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := follower.FollowerSeal("s", sealed.Index, sealed.Size); err != nil {
			t.Fatal(err)
		}
		if b, _, err = leader.ReadSegment("s", open.Index, 0, 1<<30); err != nil {
			t.Fatal(err)
		}
		if _, err := follower.FollowerIngest("s", open.Index, 0, b); err != nil {
			t.Fatal(err)
		}
		if err := follower.FollowerSealOpen("s"); err != nil {
			t.Fatal(err)
		}
		if err := follower.FollowerBootstrap("s", store.Snapshot{Seq: 3, Gen: 3, ODs: ods(t, "[a] -> [b]", "[b] -> [c]", "[c] -> [d]")}); err != nil {
			t.Fatal(err)
		}

		st := follower.Stats()["s"]
		if st.Follower == nil || st.Replica == nil {
			t.Fatalf("%s follower Stats = %+v, want both the follower and the replica block", kind, st)
		}
		if st.Follower.SnapshotsInstalled != st.Replica.Bootstraps || st.Follower.BytesFetched != st.Replica.BytesFetched {
			t.Fatalf("%s: follower block %+v and replica block %+v disagree", kind, *st.Follower, *st.Replica)
		}
		statuses[kind] = *st.Replica
	}
	want := ReplicaStatus{
		AppliedSeq: 3, Generation: 3, SegmentsFetched: 3,
		BytesFetched:   uint64(ss.Segments[0].Size + ss.Segments[1].Size),
		SegmentsSealed: 2, Bootstraps: 1,
	}
	for kind, got := range statuses {
		if got != want {
			t.Errorf("%s follower reports %+v, want %+v", kind, got, want)
		}
	}
}

// TestSegmentStateSnapshotPair: GET /segments publishes the last snapshot's
// seq and generation as one pair. Every declare here is distinct, so the
// generation equals the seq at every cut, and a polled pair that differs
// describes no snapshot — what a compaction landing between two separate
// store reads would publish. One goroutine compacts in a loop, one polls in
// a loop, and the test goroutine declares and polls.
func TestSegmentStateSnapshotPair(t *testing.T) {
	r, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var bad atomic.Value
	poll := func() uint64 {
		ss := r.SegmentState()["s"]
		if ss.SnapshotGen != ss.SnapshotSeq {
			bad.CompareAndSwap(nil, fmt.Sprintf("/segments paired snapshot seq %d with generation %d", ss.SnapshotSeq, ss.SnapshotGen))
		}
		return ss.SnapshotSeq
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.SnapshotOne("s"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				poll()
			}
		}
	}()
	var moved uint64
	for i := 0; i < 100 && bad.Load() == nil; i++ {
		if _, err := r.Declare("s", ods(t, fmt.Sprintf("[P%d] -> [P%d]", i, i+1))); err != nil {
			t.Error(err)
			break
		}
		moved = max(moved, poll())
	}
	close(stop)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if moved == 0 {
		t.Fatal("no snapshot was ever polled; the test exercised nothing")
	}
}
