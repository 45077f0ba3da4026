package prover

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"odlib/internal/core"
	"odlib/internal/fd"
)

func L(attrs ...string) core.List { return core.L(attrs...) }

func mustParse(t *testing.T, text string) []core.OD {
	t.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil {
		t.Fatal(err)
	}
	return ods
}

func implies(t *testing.T, p *Prover, stmt string) bool {
	t.Helper()
	ods := mustParse(t, stmt)
	ok, err := p.ImpliesAll(ods)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestBasicImplications(t *testing.T) {
	p := New(mustParse(t, "[A] -> [B]; [B] -> [C]"))
	for _, want := range []string{
		"[A] -> [C]",       // Transitivity
		"[A] -> [A, B]",    // Union with reflexivity
		"[A, D] -> [B]",    // Augmentation
		"[D, A] -> [D, B]", // Prefix
		"[A] <-> [B, A]",   // Suffix
		"[A] ~ [B]",        // order compatibility follows here
		"[A, B] -> [A]",    // Reflexivity (trivial)
		"[A, A] <-> [A]",   // Normalization
	} {
		if !implies(t, p, want) {
			t.Errorf("M should imply %s", want)
		}
	}
	// A subtle positive case: M ⊨ [A,B] <-> [B,A]?
	// [A] -> [B] forbids A/B swaps, and splits are impossible between the
	// two permutations of the same attribute set, so this IS implied.
	if !implies(t, p, "[A, B] <-> [B, A]") {
		t.Error("M should imply [A, B] <-> [B, A] (no swap can exist)")
	}
	for _, not := range []string{
		"[B] -> [A]",
		"[C] -> [A]",
		"[] -> [A]",
		"[D] -> [A]",
		"[C] -> [B]",
	} {
		if implies(t, p, not) {
			t.Errorf("M should not imply %s", not)
		}
	}
}

func TestFDFormDoesNotGiveOrder(t *testing.T) {
	// set(A) → set(B) as an FD (OD form [A] ↦ [A,B]) does not make B follow
	// A's order: a swap remains possible.
	p := New(mustParse(t, "[A] -> [A, B]"))
	if implies(t, p, "[A] -> [B]") {
		t.Error("FD must not imply the directional OD")
	}
	ok, w, err := p.ImpliesWitness(core.NewOD(L("A"), L("B")))
	if err != nil || ok {
		t.Fatalf("expected counterexample, got ok=%v err=%v", ok, err)
	}
	// The witness must satisfy M and falsify the candidate.
	if !w.HoldsAll(p.ODs()) {
		t.Errorf("witness %v does not satisfy M", w)
	}
	if w.HoldsOD(core.NewOD(L("A"), L("B"))) {
		t.Errorf("witness %v does not falsify the candidate", w)
	}
}

func TestSplitFastPathWitness(t *testing.T) {
	p := New(mustParse(t, "[A] -> [B]"))
	ok, w, err := p.ImpliesWitness(core.NewOD(L("A"), L("C")))
	if err != nil || ok {
		t.Fatalf("expected split counterexample, got ok=%v err=%v", ok, err)
	}
	if !w.HoldsAll(p.ODs()) {
		t.Errorf("split witness %v does not satisfy M", w)
	}
	if w.HoldsOD(core.NewOD(L("A"), L("C"))) {
		t.Errorf("split witness %v does not falsify candidate", w)
	}
	// It must be a split: candidate LHS ties on the witness.
	if w.Compare(L("A")) != core.Equal {
		t.Errorf("expected a split witness, got %v", w)
	}
}

func TestLeftEliminateRewrite(t *testing.T) {
	// The paper's Example 1: given [month] ↦ [quarter], the order-by
	// [year, quarter, month] reduces to [year, month] (Theorem 8).
	p := New(mustParse(t, "[month] -> [quarter]"))
	if !implies(t, p, "[year, quarter, month] <-> [year, month]") {
		t.Error("Theorem 8 rewrite should be implied")
	}
	// But with an interceding attribute it must fail (paper: ABCD with
	// D ↦ B cannot drop B).
	q := New(mustParse(t, "[D] -> [B]"))
	if !implies(t, q, "[A, B, D] <-> [A, D]") {
		t.Error("ABD should reduce to AD")
	}
	if implies(t, q, "[A, B, C, D] <-> [A, C, D]") {
		t.Error("ABCD must not reduce to ACD: C intervenes")
	}
	if implies(t, q, "[A, B, C, D] <-> [A, D]") {
		t.Error("ABCD must not reduce to AD given only D -> B")
	}
	// With D ↦ BC the reduction goes through (paper, Section 2.3).
	r := New(mustParse(t, "[D] -> [B, C]"))
	if !implies(t, r, "[A, B, C, D] <-> [A, D]") {
		t.Error("ABCD should reduce to AD given D -> [B, C]")
	}
}

func TestChainAxiomInstance(t *testing.T) {
	// A one-link chain: X ~ W, W ~ Z, XW ~ WZ entail X ~ Z.
	m := "[X] ~ [W]; [W] ~ [Z]; [X, W] ~ [W, Z]"
	p := New(mustParse(t, m))
	if !implies(t, p, "[X] ~ [Z]") {
		t.Error("Chain conclusion should be implied")
	}
	// Dropping the third premise admits the Figure 3 counterexample.
	q := New(mustParse(t, "[X] ~ [W]; [W] ~ [Z]"))
	if implies(t, q, "[X] ~ [Z]") {
		t.Error("order compatibility must not be transitive without the chain condition")
	}
}

func TestConstants(t *testing.T) {
	p := New(mustParse(t, "[] -> [A]; [A] -> [B]"))
	consts, err := p.Constants()
	if err != nil {
		t.Fatal(err)
	}
	if !consts.Equal(L("A", "B")) {
		t.Errorf("Constants = %v, want [A, B]", consts)
	}
	ok, err := p.IsConstant("C")
	if err != nil || ok {
		t.Errorf("C should not be constant: %v %v", ok, err)
	}
	// Constants commute with everything.
	if !implies(t, p, "[C, A] <-> [A, C]") {
		t.Error("a constant should not affect ordering")
	}
}

func TestEquivalentSets(t *testing.T) {
	m := mustParse(t, "[A] -> [B]")
	// Theorem 15: X ↦ Y is equivalent to {X ↦ XY, X ~ Y}.
	m2 := mustParse(t, "[A] -> [A, B]; [A] ~ [B]")
	p := New(m)
	ok, err := p.EquivalentSets(m2)
	if err != nil || !ok {
		t.Errorf("Theorem 15 equivalence failed: %v %v", ok, err)
	}
	ok, err = p.EquivalentSets(mustParse(t, "[A] -> [A, B]"))
	if err != nil || ok {
		t.Error("FD half alone is weaker")
	}
}

func TestMaxAttrsGuard(t *testing.T) {
	p := New(mustParse(t, "[A] -> [B]"), WithMaxAttrs(3))
	_, err := p.Implies(core.NewOD(L("A", "C"), L("D", "E")))
	if err == nil {
		t.Error("expected attribute-limit error")
	}
	if _, err := p.Implies(core.NewOD(L("A"), L("C"))); err != nil {
		t.Errorf("within limit should work: %v", err)
	}
}

// TestProverSoundOnRandomRelations: whenever the prover says M ⊨ φ, no
// random relation satisfying M may falsify φ.
func TestProverSoundOnRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	universe := L("A", "B", "C")
	for i := 0; i < 120; i++ {
		var m []core.OD
		for j := 0; j < 1+rng.Intn(3); j++ {
			m = append(m, core.RandOD(rng, universe, 2))
		}
		p := New(m)
		phi := core.RandOD(rng, universe, 2)
		implied, err := p.Implies(phi)
		if err != nil {
			t.Fatal(err)
		}
		if !implied {
			continue
		}
		for k := 0; k < 20; k++ {
			r := core.RandRelation(rng, universe, 5, 2)
			okM, _, err := r.SatisfiesAll(m)
			if err != nil {
				t.Fatal(err)
			}
			if !okM {
				continue
			}
			okPhi, _, err := r.Satisfies(phi)
			if err != nil {
				t.Fatal(err)
			}
			if !okPhi {
				t.Fatalf("unsound: M=%s ⊨ %s per prover, falsified by\n%s",
					core.ODsString(m), phi, r)
			}
		}
	}
}

// TestProverCompleteWitness: whenever the prover denies implication, the
// returned two-row witness must satisfy M and falsify the candidate — i.e.
// refutations are always certified.
func TestProverCompleteWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	universe := L("A", "B", "C", "D")
	for i := 0; i < 200; i++ {
		var m []core.OD
		for j := 0; j < 1+rng.Intn(3); j++ {
			m = append(m, core.RandOD(rng, universe, 3))
		}
		p := New(m)
		phi := core.RandOD(rng, universe, 3)
		implied, w, err := p.ImpliesWitness(phi)
		if err != nil {
			t.Fatal(err)
		}
		if implied {
			continue
		}
		if w == nil {
			t.Fatalf("refutation without witness for %s under %s", phi, core.ODsString(m))
		}
		if !w.HoldsAll(m) || w.HoldsOD(phi) {
			t.Fatalf("bad witness %v for %s under %s", w, phi, core.ODsString(m))
		}
		// And the realized relation agrees with the pattern verdicts.
		r := w.Relation()
		okM, _, err := r.SatisfiesAll(m)
		if err != nil || !okM {
			t.Fatalf("realized witness fails M: %v %v", okM, err)
		}
		okPhi, _, err := r.Satisfies(phi)
		if err != nil || okPhi {
			t.Fatalf("realized witness does not falsify %s", phi)
		}
	}
}

// TestSubsumesArmstrong is Theorem 16 checked operationally: on FD-form ODs
// the prover coincides with Armstrong closure.
func TestSubsumesArmstrong(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	universe := L("A", "B", "C", "D")
	for i := 0; i < 150; i++ {
		var m []core.OD
		for j := 0; j < 1+rng.Intn(3); j++ {
			x := core.RandList(rng, universe, 2)
			y := core.RandList(rng, universe, 2)
			m = append(m, core.NewOD(x, x.Concat(y))) // FD form
		}
		p := New(m)
		x := core.RandList(rng, universe, 2)
		y := core.RandList(rng, universe, 2)
		odImplied, err := p.Implies(core.NewOD(x, x.Concat(y)))
		if err != nil {
			t.Fatal(err)
		}
		fdImplied := fd.Implies(fd.FromODs(m), fd.New(x, y))
		if odImplied != fdImplied {
			t.Fatalf("Theorem 16 violated: OD=%v FD=%v for X=%v Y=%v under %s",
				odImplied, fdImplied, x, y, core.ODsString(m))
		}
	}
}

func TestTrivialODsImpliedByEmptySet(t *testing.T) {
	p := New(nil)
	rng := rand.New(rand.NewSource(53))
	universe := L("A", "B", "C")
	for i := 0; i < 300; i++ {
		od := core.RandOD(rng, universe, 3)
		implied, err := p.Implies(od)
		if err != nil {
			t.Fatal(err)
		}
		if implied != od.Trivial() {
			t.Fatalf("∅ ⊨ %s = %v but Trivial = %v", od, implied, od.Trivial())
		}
	}
}

func TestCacheAndAccessors(t *testing.T) {
	m := mustParse(t, "[A] -> [B]")
	p := New(m)
	if len(p.ODs()) != 1 || !p.Universe().Equal(L("A", "B")) {
		t.Errorf("accessors wrong: %v %v", p.ODs(), p.Universe())
	}
	od := core.NewOD(L("A"), L("B"))
	a, _ := p.Implies(od)
	b, _ := p.Implies(od) // decided again: the prover keeps no verdict
	if !a || !b {
		t.Error("re-asked result differs")
	}
}

// TestWitnessCompactStoredExpandedAtEdge pins the witness contract: a
// verdict — what DecideCtx returns and what the catalog's tiers hold —
// carries the counterexample over the attributes the decide entangled, every
// omitted attribute tying; ImpliesWitness lifts it onto every attribute of M
// and the question, every time it is asked.
func TestWitnessCompactStoredExpandedAtEdge(t *testing.T) {
	var m []core.OD
	for i := 0; i < 30; i++ { // 60 attributes the question never touches
		m = append(m, mustParse(t, fmt.Sprintf("[x%02d] -> [y%02d]", i, i))...)
	}
	m = append(m, mustParse(t, "[A] -> [B]")...)
	q := core.NewOD(L("B", "Q"), L("A")) // Q is outside M's universe
	p := New(m)

	v, err := p.DecideCtx(t.Context(), q)
	if err != nil || v.Implied {
		t.Fatalf("DecideCtx: implied=%v err=%v, want refuted", v.Implied, err)
	}
	checkWitness(t, m, q, v.Witness)
	if got := v.Witness.Universe(); !got.Equal(L("A", "B", "Q")) {
		t.Errorf("stored witness spans %v, want the entangled [A, B, Q]", got)
	}

	full := append(p.Universe().Clone(), "Q")
	for _, pass := range []string{"first", "re-asked"} {
		ok, w, err := p.ImpliesWitness(q)
		if err != nil || ok {
			t.Fatalf("%s: ok=%v err=%v, want refuted", pass, ok, err)
		}
		checkWitness(t, m, q, w)
		if !w.Universe().SetEqual(full) || len(w.Universe()) != len(full) {
			t.Errorf("%s: edge witness spans %d attributes, want all %d of M and the question", pass, len(w.Universe()), len(full))
		}
	}
}

// TestEquivalentSetsCountsBothDirections: the reverse prover shares the
// receiver's counters (and pool and workers), so the reverse direction's
// searches are observable like the forward one's.
func TestEquivalentSetsCountsBothDirections(t *testing.T) {
	var c Counters
	p := New(mustParse(t, "[A] -> [B]"), WithCounters(&c))
	other := mustParse(t, "[A] -> [A, B]; [A] ~ [B]") // three ODs
	if ok, err := p.EquivalentSets(other); err != nil || !ok {
		t.Fatalf("Theorem 15 equivalence: ok=%v err=%v", ok, err)
	}
	if got := c.Searches.Load(); got != 4 {
		t.Errorf("%d searches counted, want 3 forward + 1 reverse", got)
	}
}

// TestMaxAttrsGuardDegenerate: a guard of zero or below refuses every
// question that mentions an attribute, as an error like any other overflow.
func TestMaxAttrsGuardDegenerate(t *testing.T) {
	for _, n := range []int{0, -3} {
		p := New(mustParse(t, "[A] -> [B]"), WithMaxAttrs(n))
		if _, err := p.Implies(core.NewOD(L("A"), L("B"))); err == nil {
			t.Errorf("WithMaxAttrs(%d): expected attribute-limit error", n)
		}
	}
}

// TestDemandDrivenRestriction checks that a small question against a large
// constraint set only pays for (and is only limited by) the ODs actually
// entangled with it — the schema-wide-catalog scenario, where the declared
// set spans far more than DefaultMaxAttrs attributes.
func TestDemandDrivenRestriction(t *testing.T) {
	var m []core.OD
	for i := 0; i+1 < 40; i++ {
		m = append(m, core.NewOD(
			core.L(fmt.Sprintf("A%d", i)), core.L(fmt.Sprintf("A%d", i+1))))
	}
	p := New(m)
	ok, err := p.Implies(core.NewOD(core.L("A0"), core.L("A0", "A1")))
	if err != nil {
		t.Fatalf("2-attribute question against a 40-attribute chain: %v", err)
	}
	if !ok {
		t.Fatal("[A0] -> [A0, A1] should be implied by [A0] -> [A1]")
	}
	// Refutation stays local too, and the witness must survive validation
	// against the whole chain.
	ok, w, err := p.ImpliesWitness(core.NewOD(core.L("A1"), core.L("A0")))
	if err != nil {
		t.Fatal(err)
	}
	if ok || w == nil {
		t.Fatalf("[A1] -> [A0] should be refuted with a witness, got %v %v", ok, w)
	}
	if !w.HoldsAll(m) {
		t.Fatalf("witness %v does not satisfy the full chain", w)
	}
	// A question genuinely spanning the chain widens until it exceeds the
	// guard; the error names the entangled attribute count.
	if _, err := p.Implies(core.NewOD(core.L("A0"), core.L("A39"))); err == nil {
		t.Fatal("end-to-end chain question should exceed the attribute guard")
	}
}

// TestDisjointConstraintsIrrelevant cross-checks the component restriction's
// completeness: adding constraints over disjoint attributes never changes an
// answer, in either direction.
func TestDisjointConstraintsIrrelevant(t *testing.T) {
	base, err := core.ParseStatements("[A] -> [B]; [C] -> [A]")
	if err != nil {
		t.Fatal(err)
	}
	noise, err := core.ParseStatements("[U] -> [V]; [] -> [W]; [V] ~ [U]")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"[C] -> [B]", "[A] -> [A, B]", "[B] -> [A]", "[A, C] <-> [C]",
	}
	for _, q := range queries {
		ods, err := core.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(base).ImpliesAll(ods)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(append(append([]core.OD{}, base...), noise...)).ImpliesAll(ods)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: disjoint noise flipped the answer from %v to %v", q, want, got)
		}
	}
}

// TestRefutationReaskedKeepsWitness: the prover remembers nothing, so a
// re-asked refutation is decided again — and comes back with a valid
// counterexample both times.
func TestRefutationReaskedKeepsWitness(t *testing.T) {
	m, err := core.ParseStatements("[A] -> [B]")
	if err != nil {
		t.Fatal(err)
	}
	p := New(m)
	q := core.NewOD(core.L("B"), core.L("A"))
	for i := 0; i < 2; i++ {
		ok, w, err := p.ImpliesWitness(q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("[B] -> [A] should not be implied by [A] -> [B]")
		}
		if w == nil {
			t.Fatalf("iteration %d: refutation lost its witness", i)
		}
		if !w.HoldsAll(m) || w.HoldsOD(q) {
			t.Fatalf("iteration %d: witness %v is not a counterexample", i, w)
		}
	}
}

// TestProverConcurrentUse pins the type's contract — a Prover is safe for
// concurrent use, with no option to ask for it: 8 goroutines put overlapping
// questions (every pair of a chain, both directions) and distinct ones (the
// same pairs behind a per-goroutine attribute M never mentions) to one
// prover through the verdict-only and the witness entry points, and every
// verdict is checked. Run under -race: the default verdict cache this
// package used to carry was a bare map.
func TestProverConcurrentUse(t *testing.T) {
	const n = 6
	attr := func(i int) core.Attribute { return core.Attribute(fmt.Sprintf("a%d", i)) }
	var m []core.OD
	for i := 0; i+1 < n; i++ {
		m = append(m, core.NewOD(core.List{attr(i)}, core.List{attr(i + 1)}))
	}
	p := New(m)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := core.Attribute(fmt.Sprintf("g%d", g))
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					for _, q := range []core.OD{
						core.NewOD(core.List{attr(i)}, core.List{attr(j)}),
						core.NewOD(core.List{own, attr(i)}, core.List{own, attr(j)}),
					} {
						want := i <= j // the chain orders forwards only
						ok, err := p.Implies(q)
						if err != nil || ok != want {
							t.Errorf("goroutine %d: Implies(%s) = %v, %v; want %v", g, q, ok, err, want)
							return
						}
						ok, w, err := p.ImpliesWitness(q)
						if err != nil || ok != want {
							t.Errorf("goroutine %d: ImpliesWitness(%s) = %v, %v; want %v", g, q, ok, err, want)
							return
						}
						if !ok && (w == nil || !w.HoldsAll(m) || w.HoldsOD(q)) {
							t.Errorf("goroutine %d: %s refuted by %v, which is no counterexample", g, q, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
