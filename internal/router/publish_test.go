package router

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"odlib/internal/core"
	"odlib/internal/store"
)

// TestAckedWriteIsPublished: the committer publishes a group before it
// wakes the group's writers, so a Declare or Remove that returns is already
// visible — read-your-writes — and the shard's applied seq has reached the
// seq it returned. Eight writers share one durable shard, so their records
// group-commit together; each writer owns its ODs, so the listing's answer
// for them is decided by that writer alone.
func TestAckedWriteIsPublished(t *testing.T) {
	r, err := Open(Options{DataDir: t.TempDir(), Store: store.Options{Fsync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const writers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				od := core.NewOD(core.L(fmt.Sprintf("w%d", w)), core.L(fmt.Sprintf("v%d", i)))
				for _, declare := range []bool{true, false} {
					var res MutationResult
					var err error
					if declare {
						res, err = r.Declare("s", []core.OD{od})
					} else {
						res, err = r.Remove("s", []core.OD{od})
					}
					if err != nil {
						t.Error(err)
						return
					}
					if res.Seq == 0 || res.Added+res.Removed != 1 {
						t.Errorf("writer %d: %s answered %+v, want one effective change with its seq", w, od, res)
						return
					}
					l, err := r.Listing("s")
					if err != nil {
						t.Error(err)
						return
					}
					listed := false
					for _, d := range l.Declared {
						listed = listed || d.Equal(od)
					}
					if listed != declare {
						t.Errorf("writer %d: acknowledged %s (declare %v), listing says declared=%v", w, od, declare, listed)
						return
					}
					if applied, _, _ := r.shard("s").cat.Applied(); applied < res.Seq {
						t.Errorf("writer %d: acknowledged seq %d, shard applied through %d", w, res.Seq, applied)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFailedGroupAppliesNothing: records staged before a WAL failure reaches
// their group's commit are never applied. The first group holds the
// committer inside its telemetry hook, after its write, so the records staged
// meanwhile form the next group; the WAL then fails. The first mutation
// publishes, every staged one gets the error, the catalog's applied seq,
// generation and declared set stay where the first left them, and later
// mutations are refused.
func TestFailedGroupAppliesNothing(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	tel := &store.Telemetry{BatchRecords: func(float64) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}}
	r, err := Open(Options{DataDir: t.TempDir(), Store: store.Options{Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	first := ods(t, "[A] -> [B]")
	firstDone := make(chan error, 1)
	go func() {
		_, err := r.Declare("s", first)
		firstDone <- err
	}()
	<-entered
	sh := r.shard("s")
	var staged []*stagedMutation
	for _, stmt := range []string{"[B] -> [C]", "[C] -> [D]", "[D] -> [E]"} {
		m, _, err := sh.stage(ods(t, stmt), nil)
		if err != nil {
			close(gate)
			t.Fatal(err)
		}
		staged = append(staged, m)
	}
	cause := errors.New("drill: disk died")
	sh.st.FailWAL(cause)
	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatalf("the group committed before the failure: %v", err)
	}
	for i, m := range staged {
		if _, err := m.wait(); !errors.Is(err, cause) {
			t.Fatalf("staged mutation %d got %v, want the WAL failure", i, err)
		}
	}
	seq, gen, declared := sh.cat.Applied()
	if seq != 1 || gen != 1 || core.ODsString(declared) != core.ODsString(first) {
		t.Fatalf("catalog at seq %d, generation %d, declared %s; want seq 1, generation 1, declared %s",
			seq, gen, core.ODsString(declared), core.ODsString(first))
	}
	if _, err := r.Declare("s", ods(t, "[X] -> [Y]")); err == nil {
		t.Fatal("mutation after a WAL failure was accepted")
	}
}

// churnShard is the shard bench/'s mutate-churn writes to: 64 chains of 4
// links [cK_i] -> [cK_i+1] plus 64 isolated [xK_a] -> [xK_b] — 320 declared.
func churnShard() []core.OD {
	var out []core.OD
	for c := 0; c < 64; c++ {
		for i := 0; i < 4; i++ {
			out = append(out, core.NewOD(core.L(fmt.Sprintf("c%d_%d", c, i)), core.L(fmt.Sprintf("c%d_%d", c, i+1))))
		}
	}
	for k := 0; k < 64; k++ {
		out = append(out, core.NewOD(core.L(fmt.Sprintf("x%d_a", k)), core.L(fmt.Sprintf("x%d_b", k))))
	}
	return out
}

// BenchmarkApplyBatchConcurrent: 8 writers on the 320-OD churn shard of one
// durable shard with fsync off, each op one effective ApplyBatch of one
// isolated OD, declared and withdrawn in turn. records/commit is how many
// records a group commit carried on average — how many writers one apply
// served.
func BenchmarkApplyBatchConcurrent(b *testing.B) {
	r, err := Open(Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Declare("churn", churnShard()); err != nil {
		b.Fatal(err)
	}
	const writers = 8
	before := *r.Stats()["churn"].Store
	var ops atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			od := []core.OD{core.NewOD(core.L(fmt.Sprintf("w%d_a", w)), core.L(fmt.Sprintf("w%d_b", w)))}
			for i := 0; ops.Add(1) <= int64(b.N); i++ {
				if _, err := r.ApplyBatch([]BatchOp{{Schema: "churn", Remove: i%2 == 1, ODs: od}}); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	after := *r.Stats()["churn"].Store
	b.ReportMetric(float64(after.Seq-before.Seq)/float64(after.CommitBatches-before.CommitBatches), "records/commit")
}
