package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
	"odlib/internal/warehouse"
)

// chainSchema is 12 independent chains of 5 attributes, k0 ↦ k1 ↦ … ↦ k4
// each: 60 attributes and 48 ODs, far past the attribute guard as a whole,
// so every answer depends on the working set staying local to the question.
func chainSchema() (attrs core.List, ods []core.OD) {
	for k := 0; k < 12; k++ {
		for i := 0; i < 5; i++ {
			a := core.Attribute(fmt.Sprintf("c%02d_%d", k, i))
			attrs = append(attrs, a)
			if i > 0 {
				ods = append(ods, core.NewOD(core.List{attrs[len(attrs)-2]}, core.List{a}))
			}
		}
	}
	return attrs, ods
}

// randomOrder draws an ORDER BY list of 1–5 attributes from a window of six
// neighbouring schema attributes, so lists regularly mention attributes the
// constraints relate.
func randomOrder(rng *rand.Rand, attrs core.List) core.List {
	window := min(6, len(attrs))
	at := rng.Intn(len(attrs) - window + 1)
	l := make(core.List, 1+rng.Intn(5))
	for i := range l {
		l[i] = attrs[at+rng.Intn(window)]
	}
	return l
}

// TestCatalogRewriteMatchesLocalProver: the catalog answers a reduction's
// questions down its verdict tiers, a bare rewrite.Constraints asks a local
// prover — and nobody can tell the difference. Over seeded add/remove
// histories on the date-dimension constraints and on the chain schema, every
// random ORDER BY list reduces to the same list by the same steps, and
// Covers and Equivalent return the same verdicts, as on a fresh Constraints
// over the catalog's declared set.
func TestCatalogRewriteMatchesLocalProver(t *testing.T) {
	dateODs := warehouse.DeclaredODs()
	dateAttrs := core.AttrsOf(dateODs).Sorted()
	chainAttrs, chainODs := chainSchema()

	ctx := context.Background()
	lists, reduced := 0, 0
	for _, schema := range []struct {
		name  string
		attrs core.List
		ods   []core.OD
	}{{"date", dateAttrs, dateODs}, {"chain", chainAttrs, chainODs}} {
		rng := rand.New(rand.NewSource(18))
		cat := New()
		cat.Add(schema.ods...)
		for round := 0; round < 10; round++ {
			if round > 0 { // round 0 asks against the full set
				var batch []core.OD
				for _, od := range schema.ods {
					if rng.Intn(4) == 0 {
						batch = append(batch, od)
					}
				}
				if round%2 == 1 {
					cat.Remove(batch...)
				} else {
					cat.Add(batch...)
				}
			}
			local := rewrite.NewConstraints(nil, cat.Declared())
			for q := 0; q < 16; q++ {
				order, other := randomOrder(rng, schema.attrs), randomOrder(rng, schema.attrs)
				where := fmt.Sprintf("%s round %d: %v", schema.name, round, order)

				got, _, err := cat.ReduceOrderStampedCtx(ctx, order)
				if err != nil {
					t.Fatalf("%s: catalog: %v", where, err)
				}
				want, err := rewrite.ReduceOrderCtx(ctx, order, local)
				if err != nil {
					t.Fatalf("%s: local: %v", where, err)
				}
				if !got.Reduced.Equal(want.Reduced) || !reflect.DeepEqual(got.Steps, want.Steps) {
					t.Fatalf("%s: catalog reduced to %v by %v, local prover to %v by %v",
						where, got.Reduced, got.Steps, want.Reduced, want.Steps)
				}
				lists++
				if len(got.Steps) > 0 {
					reduced++
				}

				gotC, err := cat.Covers(order, other)
				wantC, err2 := rewrite.Covers(order, other, local)
				if err != nil || err2 != nil || gotC != wantC {
					t.Fatalf("%s covers %v: catalog %v (%v), local prover %v (%v)", where, other, gotC, err, wantC, err2)
				}
				gotE, err := cat.Equivalent(order, want.Reduced)
				wantE, err2 := rewrite.Equivalent(order, want.Reduced, local)
				if err != nil || err2 != nil || gotE != wantE || !gotE {
					t.Fatalf("%s <-> %v: catalog %v (%v), local prover %v (%v), want both true",
						where, want.Reduced, gotE, err, wantE, err2)
				}
				gotE, err = cat.Equivalent(order, other)
				wantE, err2 = rewrite.Equivalent(order, other, local)
				if err != nil || err2 != nil || gotE != wantE {
					t.Fatalf("%s <-> %v: catalog %v (%v), local prover %v (%v)", where, other, gotE, err, wantE, err2)
				}
			}
		}
	}
	if lists < 300 || reduced < lists/10 {
		t.Fatalf("%d lists compared, %d of them reduced: the differential is too thin", lists, reduced)
	}
}

// countingOracle answers from a local prover and records what it was asked:
// the rewriter's questions, observed at the seam.
type countingOracle struct {
	p              *prover.Prover
	asked, refuted uint64
}

func (o *countingOracle) OrdersBy(ctx context.Context, x, y core.List) (bool, error) {
	o.asked++
	ok, err := o.p.ImpliesCtx(ctx, core.NewOD(x, y))
	if !ok {
		o.refuted++
	}
	return ok, err
}

// TestRewriteQuestionsDescendTheTierChain pins that a rewrite's implication
// questions are the catalog's questions: a reduction that asks N questions
// at the Oracle seam moves the tier counters by exactly N, re-asked it moves
// them by N again without one search, and its stored verdicts outlive a
// mutation by kind — after an unrelated declaration nothing searches again,
// after its removal only the sub-questions a search had found implied do.
func TestRewriteQuestionsDescendTheTierChain(t *testing.T) {
	// The reduction drops quarter on a closure hit and season on an answer
	// only a search finds ([month] -> [season] needs [month] <-> [quarter,
	// month], which key-matched composition cannot derive), and refutes
	// every other attempt: each non-trivial tier gets its share.
	declared, err := core.ParseStatements("[month] -> [quarter]; [quarter, month] -> [season]")
	if err != nil {
		t.Fatal(err)
	}
	order := core.L("year", "season", "quarter", "month", "day")
	ctx := context.Background()

	seam := &countingOracle{p: prover.New(declared)}
	want, err := rewrite.ReduceOrderCtx(ctx, order, rewrite.NewConstraints(nil, declared).UseOracle(seam))
	if err != nil {
		t.Fatal(err)
	}
	n, refuted := seam.asked, seam.refuted
	if !want.Reduced.Equal(core.L("year", "month", "day")) || refuted == 0 || refuted == n {
		t.Fatalf("fixture: reduced to %v, %d of %d questions refuted", want.Reduced, refuted, n)
	}

	cat := New()
	cat.Add(declared...)
	sum := func(s TierStats) uint64 { return s.Trivial + s.Closure + s.Negative + s.Memo + s.Search }
	reduce := func(step string) (before, after Stats) {
		t.Helper()
		before = cat.Stats()
		got, _, err := cat.ReduceOrderStampedCtx(ctx, order)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !got.Reduced.Equal(want.Reduced) {
			t.Fatalf("%s: reduced to %v, want %v", step, got.Reduced, want.Reduced)
		}
		after = cat.Stats()
		if d := sum(after.Tiers) - sum(before.Tiers); d != n {
			t.Errorf("%s: %d tier hits for a reduction of %d questions", step, d, n)
		}
		if ds, dt := after.Prover.Searches-before.Prover.Searches, after.Tiers.Search-before.Tiers.Search; ds != dt {
			t.Errorf("%s: the prover ran %d searches, the search tier counted %d", step, ds, dt)
		}
		return before, after
	}

	before, after := reduce("first ask")
	if after.Tiers.Search == before.Tiers.Search || after.Tiers.Closure == before.Tiers.Closure {
		t.Errorf("first ask: tiers %+v -> %+v, want closure hits and searches", before.Tiers, after.Tiers)
	}
	before, after = reduce("re-ask")
	if after.Tiers.Search != before.Tiers.Search || after.Prover.Searches != before.Prover.Searches {
		t.Errorf("re-ask searched: tier %d -> %d, prover %d -> %d",
			before.Tiers.Search, after.Tiers.Search, before.Prover.Searches, after.Prover.Searches)
	}
	searchImplied := after.Tiers.Memo - before.Tiers.Memo
	if searchImplied == 0 || after.Tiers.Negative-before.Tiers.Negative != refuted {
		t.Errorf("re-ask: tiers %+v -> %+v, want memo hits and %d negative-closure hits", before.Tiers, after.Tiers, refuted)
	}

	// An addition can only reject a witness, and this one mentions nothing a
	// witness assigned: every stored verdict stands.
	unrelated := core.NewOD(core.L("unrelated_a"), core.L("unrelated_b"))
	cat.Add(unrelated)
	before, after = reduce("after an unrelated add")
	if after.Tiers.Search != before.Tiers.Search ||
		after.Tiers.Memo-before.Tiers.Memo != searchImplied ||
		after.Tiers.Negative-before.Tiers.Negative != refuted {
		t.Errorf("after an unrelated add: tiers %+v -> %+v, want no search, %d memo hits and %d negative-closure hits",
			before.Tiers, after.Tiers, searchImplied, refuted)
	}

	// A removal can only withdraw an implication: the implied verdicts a
	// search found are asked of the search again, the refutations stand.
	cat.Remove(unrelated)
	before, after = reduce("after removing it")
	if after.Tiers.Search-before.Tiers.Search != searchImplied ||
		after.Tiers.Memo != before.Tiers.Memo ||
		after.Tiers.Negative-before.Tiers.Negative != refuted {
		t.Errorf("after removing it: tiers %+v -> %+v, want %d searches, no memo hit and %d negative-closure hits",
			before.Tiers, after.Tiers, searchImplied, refuted)
	}
}

// TestEmptyCatalogRewriteAsksTheChainToo: with nothing declared a
// reduction's questions still descend the chain — counted like any other,
// and bounded by the attribute guard exactly as Implies bounds the same
// question. (A bare rewrite.Constraints with no ODs answers by triviality
// and never meets the guard; the catalog has one way to ask, not two.)
func TestEmptyCatalogRewriteAsksTheChainToo(t *testing.T) {
	cat := New(WithMaxAttrs(3))
	res, err := cat.ReduceOrder(core.L("a", "b", "c"))
	if err != nil || !res.Reduced.Equal(core.L("a", "b", "c")) {
		t.Fatalf("ReduceOrder = %v, %v; want the list back", res.Reduced, err)
	}
	if tiers := cat.Stats().Tiers; tiers.Search == 0 {
		t.Errorf("an empty catalog's rewrite asked nothing: %+v", tiers)
	}
	wide := core.L("a", "b", "c", "d")
	_, errRewrite := cat.ReduceOrder(wide)
	_, errImplies := cat.Implies(core.NewOD(wide.Suffix(1), wide.Prefix(1)))
	if errRewrite == nil || errImplies == nil || errRewrite.Error() != errImplies.Error() {
		t.Errorf("past the guard: ReduceOrder says %v, Implies says %v; want the same error", errRewrite, errImplies)
	}
	// A GROUP BY asks FD-form questions of the same chain: counted below the
	// guard, refused past it.
	before := cat.Stats().Tiers.Search
	res, _, err = cat.ReduceGroupByStamped(context.Background(), core.L("a", "b", "c"))
	if err != nil || !res.Reduced.Equal(core.L("a", "b", "c")) || cat.Stats().Tiers.Search == before {
		t.Errorf("ReduceGroupByStamped = %v, %v with %d searches; want the list back and its questions counted",
			res.Reduced, err, cat.Stats().Tiers.Search-before)
	}
	if _, _, errGroup := cat.ReduceGroupByStamped(context.Background(), wide); errGroup == nil || errGroup.Error() != errImplies.Error() {
		t.Errorf("past the guard: ReduceGroupByStamped says %v, Implies says %v; want the same error", errGroup, errImplies)
	}
}
