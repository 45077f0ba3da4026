package router

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"odlib/internal/core"
	"odlib/internal/store"
)

func ods(t *testing.T, stmts ...string) []core.OD {
	t.Helper()
	var out []core.OD
	for _, s := range stmts {
		parsed, err := core.ParseStatement(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parsed...)
	}
	return out
}

func TestShardIsolation(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Declare("sales", ods(t, "[month] -> [quarter]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare("inventory", ods(t, "[bin] -> [aisle]")); err != nil {
		t.Fatal(err)
	}

	q := ods(t, "[month] -> [quarter]")
	res, _, shard, err := r.ProveOne(context.Background(), "sales", q)
	if err != nil || !res.Implied {
		t.Fatalf("sales shard should imply its own constraint (err %v, shard %s)", err, shard)
	}
	res, _, _, err = r.ProveOne(context.Background(), "inventory", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Implied {
		t.Fatal("inventory shard must not see sales constraints")
	}
	res, _, _, err = r.ProveOne(context.Background(), DefaultShard, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Implied {
		t.Fatal("default shard must not see sales constraints")
	}

	all := r.ListingAll()
	if len(all) != 2 {
		t.Fatalf("listing covers %d shards, want 2", len(all))
	}
	if len(all["sales"].Declared) != 1 || len(all["inventory"].Declared) != 1 {
		t.Fatalf("per-shard listings wrong: %+v", all)
	}
}

func TestPrefixDerivation(t *testing.T) {
	r, err := Open(Options{ShardByPrefix: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// All attributes share the "d" prefix: derived shard "d".
	if _, err := r.Declare(DefaultShard, ods(t, "[d_date] <-> [d_date_sk]")); err != nil {
		t.Fatal(err)
	}
	// Mixed prefixes: lands on the default shard.
	if _, err := r.Declare(DefaultShard, ods(t, "[d_date, ss_item] -> [ss_ticket]")); err != nil {
		t.Fatal(err)
	}
	// No prefix at all: default shard.
	if _, err := r.Declare(DefaultShard, ods(t, "[month] -> [quarter]")); err != nil {
		t.Fatal(err)
	}

	names := r.ShardNames()
	if len(names) != 2 || names[0] != DefaultShard || names[1] != "d" {
		t.Fatalf("shards = %q, want default and d", names)
	}
	// A question mentioning only d-prefixed attributes consults shard d.
	res, _, shard, err := r.ProveOne(context.Background(), DefaultShard, ods(t, "[d_date] -> [d_date_sk]"))
	if err != nil {
		t.Fatal(err)
	}
	if shard != "d" || !res.Implied {
		t.Fatalf("prove routed to %q (implied %v), want shard d implied", shard, res.Implied)
	}
	// Explicit schema overrides derivation.
	res, _, shard, err = r.ProveOne(context.Background(), "other", ods(t, "[d_date] -> [d_date_sk]"))
	if err != nil {
		t.Fatal(err)
	}
	if shard != "other" || res.Implied {
		t.Fatalf("explicit schema ignored: shard %q implied %v", shard, res.Implied)
	}
}

func TestInvalidSchemaRejected(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, bad := range []string{"../escape", "a/b", "1digit", "with space", "@default", "Sales"} {
		if _, err := r.Declare(bad, ods(t, "[A] -> [B]")); err == nil {
			t.Fatalf("schema %q should be rejected", bad)
		}
	}
}

func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DataDir: dir, Store: store.Options{Fsync: true}}

	r, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare("sales", ods(t, "[month] -> [quarter]", "[week] -> [month]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare(DefaultShard, ods(t, "[A] -> [B]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("sales", ods(t, "[week] -> [month]")); err != nil {
		t.Fatal(err)
	}
	before := r.ListingAll()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	after := r2.ListingAll()
	if len(after) != len(before) {
		t.Fatalf("recovered %d shards, want %d", len(after), len(before))
	}
	for name, b := range before {
		a, ok := after[name]
		if !ok {
			t.Fatalf("shard %q lost across restart", name)
		}
		if fmt.Sprint(a.Declared) != fmt.Sprint(b.Declared) {
			t.Fatalf("shard %q declared drifted: %v -> %v", name, b.Declared, a.Declared)
		}
		if fmt.Sprint(a.Closure) != fmt.Sprint(b.Closure) {
			t.Fatalf("shard %q closure drifted: %v -> %v", name, b.Closure, a.Closure)
		}
	}
	// Verdicts survive too: the transitive chain was cut before the restart.
	res, _, _, err := r2.ProveOne(context.Background(), "sales", ods(t, "[week] -> [quarter]"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Implied {
		t.Fatal("withdrawn chain link still implied after restart")
	}
	res, _, _, err = r2.ProveOne(context.Background(), "sales", ods(t, "[month] -> [quarter]"))
	if err != nil || !res.Implied {
		t.Fatalf("surviving constraint not implied after restart (err %v)", err)
	}
}

func TestAutomaticSnapshotAndRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DataDir: dir, Store: store.Options{Fsync: true, SnapshotEvery: 3}}
	r, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 7; i++ {
		if _, err := r.Declare("s", ods(t, fmt.Sprintf("[A%d] -> [A%d]", i, i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction is asynchronous by design — the apply path only nudges it —
	// so the cadence-triggered snapshot lands shortly after, not inline.
	var st *store.Stats
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = r.Stats()["s"].Store
		if st != nil && st.Snapshots > 0 && st.SinceSnapshot < 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("automatic background compaction never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.SnapshotSeq == 0 {
		t.Fatalf("snapshot bookkeeping wrong: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	l, err := r2.Listing("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Declared) != 7 {
		t.Fatalf("recovered %d declared ODs, want 7", len(l.Declared))
	}
	rec := r2.Stats()["s"].Store.Recovery
	if rec.SnapshotSeq == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", rec)
	}
	if rec.Replayed >= 7 {
		t.Fatalf("recovery replayed the whole history (%d records) despite a snapshot", rec.Replayed)
	}
	res, _, _, err := r2.ProveOne(context.Background(), "s", ods(t, "[A0] -> [A7]"))
	if err != nil || !res.Implied {
		t.Fatalf("chain end not implied after snapshot+replay recovery (err %v)", err)
	}
}

func TestApplyBatchGroupsPerShard(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, Store: store.Options{Fsync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var batch []BatchOp
	for i := 0; i < 10; i++ {
		batch = append(batch, BatchOp{Schema: "a", ODs: ods(t, fmt.Sprintf("[P%d] -> [P%d]", i, i+1))})
	}
	for i := 0; i < 5; i++ {
		batch = append(batch, BatchOp{Schema: "b", ODs: ods(t, fmt.Sprintf("[Q%d] -> [Q%d]", i, i+1))})
	}
	res, err := r.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res["a"].Added != 10 || res["b"].Added != 5 {
		t.Fatalf("batch results = %+v", res)
	}
	// One WAL record per shard for the whole batch, not one per statement.
	if got := r.Stats()["a"].Store.WALRecords; got != 1 {
		t.Fatalf("shard a logged %d records for one batch, want 1", got)
	}
	if got := r.Stats()["b"].Store.WALRecords; got != 1 {
		t.Fatalf("shard b logged %d records for one batch, want 1", got)
	}
	// And one generation per shard: the batch rebuilt each closure once.
	if gen := res["a"].Stats.Generation; gen != 1 {
		t.Fatalf("shard a generation %d after one batch, want 1", gen)
	}

	// A mixed follow-up batch: declares and removes in one request — and in
	// ONE WAL record, so the pair cannot be torn apart by a crash between
	// two group commits.
	res, err = r.ApplyBatch([]BatchOp{
		{Schema: "a", ODs: ods(t, "[New] -> [P0]")},
		{Schema: "a", Remove: true, ODs: ods(t, "[P0] -> [P1]")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res["a"].Added != 1 || res["a"].Removed != 1 {
		t.Fatalf("mixed batch = %+v", res["a"])
	}
	if got := r.Stats()["a"].Store.WALRecords; got != 2 {
		t.Fatalf("shard a holds %d WAL records after two batches, want 2 (mixed batch must be one atomic record)", got)
	}

	// The mixed (OpBatch) record must replay both halves in order.
	before := fmt.Sprint(r.Stats()["a"].Catalog.Declared)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if after := fmt.Sprint(r2.Stats()["a"].Catalog.Declared); after != before {
		t.Fatalf("declared count drifted across mixed-batch replay: %s -> %s", before, after)
	}
	res2, _, _, err := r2.ProveOne(context.Background(), "a", ods(t, "[New] -> [P0]"))
	if err != nil || !res2.Implied {
		t.Fatalf("batch declare lost in replay (err %v)", err)
	}
	res2, _, _, err = r2.ProveOne(context.Background(), "a", ods(t, "[P0] -> [P1]"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Implied {
		t.Fatal("batch remove lost in replay")
	}
}

func TestProveBatchOrderAndGrouping(t *testing.T) {
	proveCalls := map[string]int{} // ProveBatch observes on the caller's goroutine
	r, err := Open(Options{ShardByPrefix: true, Telemetry: &Telemetry{
		ProveSeconds: func(shard string, _ float64) { proveCalls[shard]++ },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Declare("x", ods(t, "[A] -> [B]", "[B] -> [C]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare("y", ods(t, "[C] -> [D]")); err != nil {
		t.Fatal(err)
	}
	stmts := [][]core.OD{
		ods(t, "[A] -> [C]"), // x: implied transitively
		ods(t, "[C] -> [A]"), // x under explicit schema... resolved per call below
	}
	verdicts, err := r.ProveBatch(context.Background(), "x", stmts)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].Result.Implied {
		t.Fatal("[A] -> [C] should be implied on shard x")
	}
	if verdicts[1].Result.Implied {
		t.Fatal("[C] -> [A] should be refuted on shard x")
	}
	if verdicts[1].Result.Witness == nil {
		t.Fatal("refutation carries no witness")
	}
	if verdicts[0].Generation != verdicts[1].Generation {
		t.Fatal("same-shard batch statements answered under different generations")
	}
	if len(proveCalls) != 1 || proveCalls["x"] != 1 {
		t.Fatalf("2 statements on one shard: prove calls = %v, want one on x", proveCalls)
	}

	// The batching floor: N statements over k shards cost k catalog
	// snapshots — one ProveSeconds observation per shard group, never one
	// per statement — and come back in statement order.
	if _, err := r.Declare("p", ods(t, "[p_a] -> [p_b]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare("q", ods(t, "[q_a] -> [q_b]")); err != nil {
		t.Fatal(err)
	}
	clear(proveCalls)
	mixed := [][]core.OD{
		ods(t, "[p_a] -> [p_b]"),
		ods(t, "[q_b] -> [q_a]"),
		ods(t, "[p_b] -> [p_a]"),
		ods(t, "[q_a] -> [q_b]"),
		ods(t, "[p_a, p_b] -> [p_b]"),
	}
	verdicts, err = r.ProveBatch(context.Background(), DefaultShard, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		schema  string
		implied bool
	}{{"p", true}, {"q", false}, {"p", false}, {"q", true}, {"p", true}} {
		if verdicts[i].Schema != want.schema || verdicts[i].Result.Implied != want.implied {
			t.Fatalf("verdict %d = shard %q implied %v, want %q %v",
				i, verdicts[i].Schema, verdicts[i].Result.Implied, want.schema, want.implied)
		}
	}
	if len(proveCalls) != 2 || proveCalls["p"] != 1 || proveCalls["q"] != 1 {
		t.Fatalf("5 statements over 2 shards: prove calls = %v, want one per shard", proveCalls)
	}
}

func TestSnapshotAllAdmin(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DataDir: dir, Store: store.Options{Fsync: true}}
	r, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare("s", ods(t, "[A] -> [B]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare(DefaultShard, ods(t, "[D] -> [E]")); err != nil {
		t.Fatal(err)
	}
	got, err := r.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if got["s"].Declared != 1 || got["s"].Seq != 1 {
		t.Fatalf("snapshot results = %+v", got)
	}
	if got[DefaultShard].Declared != 1 {
		t.Fatalf("default shard missing from SnapshotAll: %+v", got)
	}
	// SnapshotOne addresses a single shard, including the default one.
	one, err := r.SnapshotOne(DefaultShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[DefaultShard].Declared != 1 {
		t.Fatalf("SnapshotOne(default) = %+v", one)
	}
	if st := r.Stats()["s"].Store; st.WALBytes != 0 || st.WALRecords != 0 {
		t.Fatalf("WAL not reset after snapshot: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery from snapshot alone (empty WAL).
	r2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rec := r2.Stats()["s"].Store.Recovery
	if rec.SnapshotODs != 1 || rec.Replayed != 0 {
		t.Fatalf("recovery = %+v, want snapshot-only", rec)
	}
}

// TestConcurrentMutateAndProve drives one shard with concurrent writers and
// readers; run under -race this is the contention regression test for the
// append-stage / apply / group-commit split.
func TestConcurrentMutateAndProve(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, Store: store.Options{Fsync: true, SnapshotEvery: 8}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 4, 4, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				stmt := fmt.Sprintf("[W%d_%d] -> [W%d_%d]", w, i, w, i+1)
				if _, err := r.Declare("hot", ods(t, stmt)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, _, _, err := r.ProveOne(context.Background(), "hot", ods(t, "[W0_0] -> [W0_1]")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := r.Stats()["hot"]
	if st.Catalog.Declared != writers*rounds {
		t.Fatalf("declared %d, want %d", st.Catalog.Declared, writers*rounds)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Stats()["hot"].Catalog.Declared; got != writers*rounds {
		t.Fatalf("recovered %d declared, want %d", got, writers*rounds)
	}
}

// TestDegradedShardHealthOnWALFailure kills one shard's WAL and asserts the
// health flip the store contract promises: the shard reports ok=false with a
// reason naming the WAL, rejects mutations, keeps serving reads — and
// healthy shards are unaffected.
func TestDegradedShardHealthOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, Store: store.Options{Fsync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Declare("sick", ods(t, "[A] -> [B]")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Declare("well", ods(t, "[C] -> [D]")); err != nil {
		t.Fatal(err)
	}
	for name, st := range r.Stats() {
		if !st.OK || st.Reason != "" {
			t.Fatalf("healthy shard %q reports %+v", name, st)
		}
	}

	r.ShardStore("sick").FailWAL(fmt.Errorf("drill: disk died"))
	if _, err := r.Declare("sick", ods(t, "[B] -> [C]")); err == nil {
		t.Fatal("mutation on a dead-WAL shard should fail")
	}
	stats := r.Stats()
	if st := stats["sick"]; st.OK || st.Reason == "" {
		t.Fatalf("dead-WAL shard still reports healthy: %+v", st)
	}
	if st := stats["well"]; !st.OK {
		t.Fatalf("healthy shard dragged down by a sibling's WAL failure: %+v", st)
	}
	// Reads on the degraded shard still answer from memory.
	res, _, _, err := r.ProveOne(context.Background(), "sick", ods(t, "[A] -> [B]"))
	if err != nil || !res.Implied {
		t.Fatalf("degraded shard stopped serving reads (err %v)", err)
	}
}

// TestWarmRestartAcrossRotationAndCompaction is the acceptance check that
// warm-restart identity — identical listings and verdicts — holds when the
// log has rotated across segments AND been compacted, with live records on
// both sides of the snapshot.
func TestWarmRestartAcrossRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DataDir: dir, Store: store.Options{Fsync: true, SegmentRecords: 2}}
	r, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := r.Declare("s", ods(t, fmt.Sprintf("[C%d] -> [C%d]", i, i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Compact mid-history, then keep writing: recovery must stitch snapshot
	// state and post-snapshot segments back together.
	snaps, err := r.SnapshotOne("s")
	if err != nil {
		t.Fatal(err)
	}
	if res := snaps["s"]; res.Seq != 9 || res.SegmentsRemoved == 0 {
		t.Fatalf("compaction = %+v, want cut at 9 with segments removed", res)
	}
	for i := 9; i < 12; i++ {
		if _, err := r.Declare("s", ods(t, fmt.Sprintf("[C%d] -> [C%d]", i, i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Remove("s", ods(t, "[C5] -> [C6]")); err != nil {
		t.Fatal(err)
	}
	capture := func(r *Router) (string, []bool) {
		l, err := r.Listing("s")
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []bool
		for _, stmt := range []string{"[C0] -> [C5]", "[C6] -> [C12]", "[C0] -> [C12]", "[C12] -> [C0]"} {
			res, _, _, err := r.ProveOne(context.Background(), "s", ods(t, stmt))
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, res.Implied)
		}
		return fmt.Sprint(l.Declared, l.Closure), verdicts
	}
	wantListing, wantVerdicts := capture(r)
	if want := []bool{true, true, false, false}; fmt.Sprint(wantVerdicts) != fmt.Sprint(want) {
		t.Fatalf("pre-restart verdicts = %v, want %v", wantVerdicts, want)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	gotListing, gotVerdicts := capture(r2)
	if gotListing != wantListing {
		t.Fatalf("listing drifted across rotation+compaction restart:\n before: %s\n after:  %s", wantListing, gotListing)
	}
	if fmt.Sprint(gotVerdicts) != fmt.Sprint(wantVerdicts) {
		t.Fatalf("verdicts drifted: %v -> %v", wantVerdicts, gotVerdicts)
	}
	rec := r2.Stats()["s"].Store.Recovery
	if rec.SnapshotODs != 9 || rec.Replayed != 4 {
		t.Fatalf("recovery = %+v, want 9 snapshot ODs + 4 replayed records", rec)
	}
}

// TestWritersFlowDuringAdminCompaction: mutations issued while an admin
// compaction runs on the same shard must all commit — the compactor never
// holds the apply path.
func TestWritersFlowDuringAdminCompaction(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, Store: store.Options{Fsync: true, SegmentRecords: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Declare("hot", ods(t, "[Z0] -> [Z1]")); err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 4, 8
	stop := make(chan struct{})
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.SnapshotOne("hot"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var wmu sync.Mutex
	var werr error
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := r.Declare("hot", ods(t, fmt.Sprintf("[W%d_%d] -> [W%d_%d]", w, i, w, i+1))); err != nil {
					wmu.Lock()
					werr = err
					wmu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-compactorDone
	if werr != nil {
		t.Fatal(werr)
	}
	if got := r.Stats()["hot"].Catalog.Declared; got != writers*rounds+1 {
		t.Fatalf("declared %d, want %d", got, writers*rounds+1)
	}
}

// TestWALOrderEqualsApplyOrder: with no shard-level lock around staging, the
// store's own critical section must still log records in the order it
// numbers them, and the apply tickets must publish them in that order. Four
// goroutines declare, remove and batch over a pool of three ODs — small
// enough that the interleaving decides the final set and the generation —
// and a restart, which replays the log in seq order, must rebuild exactly
// the live declared set and generation.
func TestWALOrderEqualsApplyOrder(t *testing.T) {
	opt := Options{DataDir: t.TempDir(), Store: store.Options{SnapshotEvery: 16, SegmentRecords: 8}}
	r, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := ods(t, "[A] -> [B]", "[B] -> [C]", "[A] -> [C]")
	const workers, rounds = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				od, other := pool[rng.Intn(len(pool)):][:1], pool[rng.Intn(len(pool)):][:1]
				var err error
				switch rng.Intn(3) {
				case 0:
					_, err = r.Declare("", od)
				case 1:
					_, err = r.Remove("", od)
				default:
					_, err = r.ApplyBatch([]BatchOp{{ODs: od}, {Remove: true, ODs: other}})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	live, err := r.Listing("")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, err := r2.Listing("")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Declared) != fmt.Sprint(live.Declared) || got.Generation != live.Generation {
		t.Fatalf("restart rebuilt declared %v at generation %d; live was %v at generation %d",
			got.Declared, got.Generation, live.Declared, live.Generation)
	}
}
