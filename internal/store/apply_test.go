package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"odlib/internal/core"
)

// applyLog is an Applier that records the seqs of every group it is handed
// and answers each record with an effect naming its seq.
type applyLog struct {
	mu     sync.Mutex
	groups [][]uint64
}

func (l *applyLog) apply(recs []Record) []any {
	seqs := make([]uint64, len(recs))
	out := make([]any, len(recs))
	for i, rec := range recs {
		seqs[i] = rec.Seq
		out[i] = effectOf(rec.Seq)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.groups = append(l.groups, seqs)
	return out
}

func (l *applyLog) calls() [][]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]uint64(nil), l.groups...)
}

func effectOf(seq uint64) string { return fmt.Sprintf("applied %d", seq) }

// stallCommitter holds the committer at the top of its next group — it
// takes ioMu before it picks the staged batch up — until release is called,
// so every record staged meanwhile joins one group.
func stallCommitter(s *Store) (release func()) {
	s.ioMu.Lock()
	return s.ioMu.Unlock
}

// TestGroupAppliesOnce: k records staged by k goroutines while the committer
// is stalled commit as one group, and the Applier sees that group in one
// call, in seq order; each writer's Pending hands back its own record's
// effect.
func TestGroupAppliesOnce(t *testing.T) {
	s, _, _, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var log applyLog
	s.OnCommit(log.apply)

	const k = 8
	odsOf := make([][]core.OD, k)
	for i := range odsOf {
		odsOf[i] = mustODs(t, fmt.Sprintf("[G%d] -> [H%d]", i, i))
	}
	release := stallCommitter(s)
	pending := make([]*Pending, k)
	seqs := make([]uint64, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, seq, err := s.AppendBatch(odsOf[i], nil)
			if err != nil {
				t.Error(err)
				return
			}
			pending[i], seqs[i] = p, seq
		}(i)
	}
	wg.Wait()
	release()
	if t.Failed() {
		return
	}
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if got, want := p.Effect(), effectOf(seqs[i]); got != want {
			t.Fatalf("writer %d (seq %d) got effect %v, want %q", i, seqs[i], got, want)
		}
	}
	calls := log.calls()
	if len(calls) != 1 || len(calls[0]) != k {
		t.Fatalf("applier saw groups %v, want one group of %d records", calls, k)
	}
	for j, seq := range calls[0] {
		if seq != uint64(j+1) {
			t.Fatalf("applier saw seqs %v, want 1..%d in order", calls[0], k)
		}
	}
	if st := s.Stats(); st.CommitBatches != 1 {
		t.Fatalf("%d commits, want 1", st.CommitBatches)
	}
}

// TestFailedGroupAppliesNothing: records staged before a WAL failure reaches
// their commit fail together — every waiter gets the error, the Applier is
// never called, and later appends are refused.
func TestFailedGroupAppliesNothing(t *testing.T) {
	s, _, _, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var log applyLog
	s.OnCommit(log.apply)

	release := stallCommitter(s)
	var pending []*Pending
	for i := 0; i < 3; i++ {
		p, _, err := s.AppendBatch(mustODs(t, fmt.Sprintf("[F%d] -> [F%d]", i, i+1)), nil)
		if err != nil {
			release()
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	cause := errors.New("drill: disk died")
	s.FailWAL(cause)
	release()
	for i, p := range pending {
		if err := p.Wait(); !errors.Is(err, cause) {
			t.Fatalf("waiter %d got %v, want the WAL failure", i, err)
		}
		if eff := p.Effect(); eff != nil {
			t.Fatalf("waiter %d of a failed group got effect %v", i, eff)
		}
	}
	if calls := log.calls(); len(calls) != 0 {
		t.Fatalf("applier called for a failed group: %v", calls)
	}
	if _, _, err := s.AppendBatch(mustODs(t, "[X] -> [Y]"), nil); err == nil {
		t.Fatal("append after a WAL failure was accepted")
	}
}

// TestWaitersWakeAfterApply: a group's waiters are woken only once the
// Applier has returned, so an acknowledged write is already applied. The
// Applier here holds the committer inside it; while it does, the group's
// done channel must still be open.
func TestWaitersWakeAfterApply(t *testing.T) {
	s, _, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entered, gate := make(chan struct{}), make(chan struct{})
	s.OnCommit(func(recs []Record) []any {
		close(entered)
		<-gate
		return make([]any, len(recs))
	})
	p, _, err := s.AppendBatch(mustODs(t, "[W] -> [V]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	select {
	case <-p.b.done:
		t.Error("the group's waiters were woken before its Applier returned")
	default:
	}
	close(gate)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactNowWaitsForStaged: a synchronous compaction cuts at or past
// every record staged before it was called — it waits for their group to
// commit and publish, since its Source only reports what was applied.
func TestCompactNowWaitsForStaged(t *testing.T) {
	s, _, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var applied uint64
	s.OnCommit(func(recs []Record) []any {
		mu.Lock()
		defer mu.Unlock()
		applied = recs[len(recs)-1].Seq
		return make([]any, len(recs))
	})
	s.StartCompactor(func() (uint64, uint64, []core.OD) {
		mu.Lock()
		defer mu.Unlock()
		return applied, applied, nil
	})

	release := stallCommitter(s)
	for i := 0; i < 3; i++ {
		if _, _, err := s.AppendBatch(mustODs(t, fmt.Sprintf("[C%d] -> [C%d]", i, i+1)), nil); err != nil {
			release()
			t.Fatal(err)
		}
	}
	done := make(chan CompactionResult, 1)
	go func() {
		res, err := s.CompactNow()
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	release()
	if res := <-done; res.Seq != 3 {
		t.Fatalf("CompactNow cut at seq %d, want 3 (every record staged before the call)", res.Seq)
	}
}
