package catalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"odlib/internal/core"
)

// TestConcurrentReadersAndWriters hammers one catalog from parallel provers,
// rewriters and mutators. Run with -race. Readers assert only invariants
// that hold regardless of interleaving; the checker goroutines assert the
// memo-invalidation contract: once a mutation has returned, every subsequent
// read must reflect it.
func TestConcurrentReadersAndWriters(t *testing.T) {
	c := New(WithMemoCapacity(1 << 10))
	c.Add(mustODs(t, "[A] -> [B]; [B] -> [C]")...)

	const (
		readers   = 4
		rounds    = 40
		perRound  = 8
		noiseAttr = 6
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Noise readers: random implication and rewrite questions. Answers vary
	// with concurrent mutations; they only must not race, error, or deadlock.
	universe := make(core.List, noiseAttr)
	for i := range universe {
		universe[i] = core.Attribute(fmt.Sprintf("N%d", i))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					if _, err := c.Implies(core.RandOD(rng, universe, 2)); err != nil {
						t.Errorf("Implies: %v", err)
						return
					}
				case 1:
					if _, err := c.ReduceOrder(core.RandList(rng, universe, 3)); err != nil {
						t.Errorf("ReduceOrder: %v", err)
						return
					}
				case 2:
					c.Snapshot()
				default:
					c.Stats()
				}
			}
		}(int64(r))
	}

	// The lister: Listing derives the closure's deflated form on the reader's
	// goroutine while Apply publishes generations. Whatever generation it
	// sees, the two halves belong to it: every declared OD is listed in the
	// closure, as itself or as the sibling that subsumes it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l := c.Listing()
			for _, d := range l.Declared {
				if !slices.ContainsFunc(l.Closure, func(m core.OD) bool {
					return m.LHS.Equal(d.LHS) && m.RHS.HasPrefix(d.RHS)
				}) {
					t.Errorf("generation %d lists %s as declared but not in its closure %v", l.Generation, d, l.Closure)
					return
				}
			}
		}
	}()

	// Noise writers: churn unrelated constraints.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := core.RandOD(rng, universe, 2)
				if rng.Intn(2) == 0 {
					c.Add(o)
				} else {
					c.Remove(o)
				}
			}
		}(int64(w))
	}

	// The contract checker: flip one designated OD and verify that reads
	// issued strictly after the mutation observe the flip — i.e. that no
	// stale memoized verdict survives a generation change. The query is
	// [X] -> [X, Y], which the closure fast path cannot answer, so it must
	// go through the memo every time.
	target := od(t, "[X] -> [Y]")
	query := od(t, "[X] -> [X, Y]")
	for round := 0; round < rounds; round++ {
		c.Add(target)
		for i := 0; i < perRound; i++ {
			ok, err := c.Implies(query)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !ok {
				t.Fatalf("round %d: stale negative verdict after Add", round)
			}
		}
		c.Remove(target)
		for i := 0; i < perRound; i++ {
			ok, err := c.Implies(query)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if ok {
				t.Fatalf("round %d: stale positive verdict after Remove", round)
			}
		}
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.Memo.Misses == 0 {
		t.Error("stress run never missed the memo; invalidation cannot have been exercised")
	}
	if st.Generation < uint64(2*rounds) {
		t.Errorf("generation = %d, want at least %d mutations observed", st.Generation, 2*rounds)
	}
}

// TestConcurrentSameQuestion has many goroutines ask the identical expensive
// question at once: all must agree, and the memo must end up with the
// verdict cached.
func TestConcurrentSameQuestion(t *testing.T) {
	c := New()
	var chain []core.OD
	for i := 0; i+1 < 9; i++ {
		chain = append(chain, core.NewOD(
			core.L(fmt.Sprintf("A%d", i)), core.L(fmt.Sprintf("A%d", i+1))))
	}
	c.Add(chain...)
	// Not in the closure (closure answers chains; ask the FD-form instead).
	q := od(t, "[A0] -> [A0, A8]")

	const n = 16
	var wg sync.WaitGroup
	results := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, err := c.Implies(q)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = ok
		}(i)
	}
	wg.Wait()
	for i, ok := range results {
		if !ok {
			t.Fatalf("goroutine %d got false, want true", i)
		}
	}
	if ok, _ := c.Implies(q); !ok {
		t.Fatal("post-stress verdict wrong")
	}
	if st := c.Stats(); st.Memo.Hits == 0 {
		t.Errorf("no memo hits across %d identical questions: %+v", n, st.Memo)
	}
}
