package catalog

import (
	"fmt"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// checkCatalogWitness asserts w certifies declared ⊭ od.
func checkCatalogWitness(t *testing.T, declared []core.OD, od core.OD, w *core.Pattern) {
	t.Helper()
	if w == nil {
		t.Fatalf("refutation of %s without witness", od)
	}
	if !w.HoldsAll(declared) {
		t.Fatalf("witness %v does not satisfy the declared set", w)
	}
	if w.HoldsOD(canon(od)) {
		t.Fatalf("witness %v does not falsify %s", w, od)
	}
}

// TestTierChainMatchesDirectProver is the randomized differential harness
// across all three decision routes: the catalog's tier chain (closure →
// negative closure → memo → parallel search), a fresh sequential prover and
// a fresh parallel prover must return identical verdicts on every question,
// and every refutation must carry a valid witness regardless of which tier
// served it. Questions repeat and mutations interleave, so the memo and
// negative-closure tiers are genuinely exercised — the tier counters are
// checked to prove it.
func TestTierChainMatchesDirectProver(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := New(WithWorkers(4))
		var live []core.OD

		ask := func(step string) {
			t.Helper()
			declared := cat.Declared()
			seq := prover.New(declared)
			par := prover.New(declared, prover.WithWorkers(4))
			// Ask a fresh batch of questions twice: the second pass hits
			// the memo or negative tiers and must not change any verdict.
			questions := make([]core.OD, 0, 6)
			for q := 0; q < 6; q++ {
				questions = append(questions, randomODs(rng, 1, 6)[0])
			}
			for pass := 0; pass < 2; pass++ {
				for _, phi := range questions {
					gotOK, gotW, err := cat.ImpliesWitness(phi)
					if err != nil {
						t.Fatalf("seed %d, %s: catalog: %v", seed, step, err)
					}
					wantOK, _, err := seq.ImpliesWitness(phi)
					if err != nil {
						t.Fatalf("seed %d, %s: sequential: %v", seed, step, err)
					}
					parOK, parW, err := par.ImpliesWitness(phi)
					if err != nil {
						t.Fatalf("seed %d, %s: parallel: %v", seed, step, err)
					}
					if gotOK != wantOK || parOK != wantOK {
						t.Fatalf("seed %d, %s: %s: tier chain=%v sequential=%v parallel=%v under %s",
							seed, step, phi, gotOK, wantOK, parOK, core.ODsString(declared))
					}
					if !gotOK {
						checkCatalogWitness(t, declared, phi, gotW)
						checkCatalogWitness(t, declared, phi, parW)
					}
				}
			}
		}

		for round := 0; round < 5; round++ {
			batch := randomODs(rng, 1+rng.Intn(4), 6)
			cat.Add(batch...)
			live = append(live, batch...)
			ask(fmt.Sprintf("round %d add", round))

			var victims []core.OD
			for _, od := range live {
				if rng.Intn(4) == 0 {
					victims = append(victims, od)
				}
			}
			if len(victims) > 0 {
				cat.Remove(victims...)
				ask(fmt.Sprintf("round %d remove", round))
			}
		}

		st := cat.Stats()
		total := st.Tiers.Trivial + st.Tiers.Closure + st.Tiers.Negative + st.Tiers.Memo + st.Tiers.Search
		if total == 0 || st.Tiers.Search == 0 {
			t.Fatalf("seed %d: tier counters unused: %+v", seed, st.Tiers)
		}
		if st.Tiers.Memo+st.Tiers.Negative == 0 {
			t.Fatalf("seed %d: repeated questions never hit a cache tier: %+v", seed, st.Tiers)
		}
	}
}

// TestNegativeClosureServesAndRevalidates pins the life cycle of a stored
// verdict, one rule per kind. A search refutation is filed with its witness
// and re-asking is a negative-tier hit; a mutation whose net-added ODs the
// witness still satisfies keeps it across the generation bump, a removal
// always does, and an addition the witness violates evicts it so the
// question re-runs the search. The mirror case: an implied verdict a search
// found is a memo-tier hit when re-asked, outlives every addition, and is
// asked of the search again after any removal.
func TestNegativeClosureServesAndRevalidates(t *testing.T) {
	cat := New()
	cat.Add(mustOD(t, "[a] -> [b]"))
	q := mustOD(t, "[b] -> [a]")       // refuted: nothing orders a by b
	held := mustOD(t, "[a] -> [a, b]") // implied, but not a closure member: only a search finds it
	if cat.Has(held) {
		t.Fatal("setup: the implied question should not be answered by the closure fast path")
	}

	assertTier := func(step string, question core.OD, want func(before, after TierStats) bool) {
		t.Helper()
		before := cat.Stats()
		ok, w, err := cat.ImpliesWitness(question)
		if err != nil || ok != (question.Key() == held.Key()) {
			t.Fatalf("%s: %s: ok=%v err=%v", step, question, ok, err)
		}
		if !ok {
			checkCatalogWitness(t, cat.Declared(), question, w)
		}
		if after := cat.Stats(); !want(before.Tiers, after.Tiers) {
			t.Fatalf("%s: %s: tier deltas wrong: before=%+v after=%+v", step, question, before.Tiers, after.Tiers)
		}
	}
	searched := func(b, a TierStats) bool { return a.Search == b.Search+1 }
	negativeHit := func(b, a TierStats) bool { return a.Negative == b.Negative+1 && a.Search == b.Search }
	memoHit := func(b, a TierStats) bool { return a.Memo == b.Memo+1 && a.Search == b.Search }

	assertTier("first ask runs the search", q, searched)
	assertTier("second ask hits the negative closure", q, negativeHit)
	assertTier("first ask runs the search", held, searched)
	assertTier("second ask hits the memo", held, memoHit)

	// [c] -> [d] does not constrain the witness (its attributes read Equal
	// on it), so the refutation survives the generation bump; the implied
	// verdict survives any addition. A removal can never invalidate a
	// counterexample, and always sends an implied verdict back to the search.
	for round := 0; round < 3; round++ {
		cat.Add(mustOD(t, "[c] -> [d]"))
		assertTier("survives an unrelated addition", q, negativeHit)
		assertTier("survives an unrelated addition", held, memoHit)

		cat.Remove(mustOD(t, "[c] -> [d]"))
		assertTier("survives a removal", q, negativeHit)
		assertTier("is searched again after a removal", held, searched)
		assertTier("and stored again", held, memoHit)
	}

	// [b] -> [a] itself — now the witness (which falsifies q by
	// construction) cannot satisfy the grown set; the entry must go, and
	// the question flips to implied via the closure tier.
	cat.Add(q)
	before := cat.Stats()
	ok, _, err := cat.ImpliesWitness(q)
	if err != nil || !ok {
		t.Fatalf("declared OD must be implied: ok=%v err=%v", ok, err)
	}
	after := cat.Stats()
	if after.Tiers.Closure != before.Tiers.Closure+1 {
		t.Fatalf("expected closure-tier hit after declaring the question: %+v -> %+v", before.Tiers, after.Tiers)
	}
	if after.Negative != 0 {
		t.Fatalf("invalidated negative entry still resident: %d", after.Negative)
	}
}

// TestNegativeClosureInvalidatedByConflictingAdd covers revalidation
// dropping an entry whose witness a *different* new OD rejects, forcing a
// fresh search whose answer must still be correct.
func TestNegativeClosureInvalidatedByConflictingAdd(t *testing.T) {
	cat := New()
	cat.Add(mustOD(t, "[a] -> [b]"))
	q := mustOD(t, "[a] -> [c]") // refuted: c unconstrained
	ok, w, _ := cat.ImpliesWitness(q)
	if ok {
		t.Fatal("want refuted")
	}
	checkCatalogWitness(t, cat.Declared(), q, w)

	// [b] -> [c]: together with [a] -> [b] this implies the question, and
	// any stored witness must fail revalidation (it falsified [a] ↦ [c]
	// while satisfying [a] ↦ [b], so it cannot satisfy [b] ↦ [c]).
	cat.Add(mustOD(t, "[b] -> [c]"))
	if cat.Stats().Negative != 0 {
		t.Fatalf("stale negative entry survived a conflicting addition")
	}
	ok, _, err := cat.ImpliesWitness(q)
	if err != nil || !ok {
		t.Fatalf("after [b] -> [c], [a] -> [c] must be implied: ok=%v err=%v", ok, err)
	}
}

func mustOD(t *testing.T, s string) core.OD {
	t.Helper()
	od, err := core.ParseOD(s)
	if err != nil {
		t.Fatal(err)
	}
	return od
}
