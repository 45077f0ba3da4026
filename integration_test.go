package odlib

// Integration tests spanning the library: proof objects certify the
// rewrites ReduceOrder⁺ applies, and the completeness construction
// round-trips through discovery. The planner's are paper/'s.

import (
	"context"
	"math/rand"
	"testing"

	"odlib/internal/armstrong"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/inference"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
)

// TestRewriteCarriesItsProof: the ORDER BY reduction the planner relies on
// is certified by a verified axiom-level proof whose conclusion the prover
// confirms.
func TestRewriteCarriesItsProof(t *testing.T) {
	ods, err := core.ParseStatements("[month] -> [quarter]; [date] -> [month]")
	if err != nil {
		t.Fatal(err)
	}
	c := rewrite.NewConstraints(nil, ods)
	res, err := rewrite.ReduceOrder(core.L("year", "quarter", "month", "date"), c)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := res.Proof(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Verify(); err != nil {
		t.Fatalf("proof invalid: %v", err)
	}
	concl, err := proof.Conclusion()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := prover.New(ods).Implies(concl)
	if err != nil || !ok {
		t.Fatalf("prover rejects the proof's conclusion %s: %v %v", concl, ok, err)
	}
}

// TestDiscoveryRoundTrip: constraints → Armstrong relation → discovery
// recovers an equivalent constraint set. This closes the loop between the
// completeness construction (Section 4) and the future-work discovery
// (Section 6).
func TestDiscoveryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	universe := core.L("A", "B", "C")
	for trial := 0; trial < 10; trial++ {
		var m []core.OD
		for j := 0; j < 1+rng.Intn(2); j++ {
			m = append(m, core.RandOD(rng, universe, 2))
		}
		table, err := armstrong.NewBuilder(0).CanonicalTable(m, universe)
		if err != nil {
			t.Fatal(err)
		}
		res, err := discover.Pipeline(context.Background(), table, discover.PipelineOptions{
			Options: discover.Options{MaxLHS: 2, MaxRHS: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Everything originally declared (with sides within the discovery
		// bounds) must be implied by what discovery found.
		p := prover.New(res.ODs)
		for _, od := range m {
			if len(od.LHS) > 2 || len(od.RHS) > 2 {
				continue
			}
			ok, err := p.Implies(od)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("discovery lost %s from %s; found %s",
					od, core.ODsString(m), core.ODsString(res.ODs))
			}
		}
		// And nothing beyond the closure: each discovered OD is implied by
		// the original set (the Armstrong relation satisfies nothing more).
		q := prover.New(m)
		for _, od := range res.ODs {
			ok, err := q.Implies(od)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("discovery invented %s not implied by %s", od, core.ODsString(m))
			}
		}
	}
}

// TestProofSystemAgreesWithProverExhaustively: over a two-attribute
// universe, compare the prover against the Armstrong relation for every OD
// with sides up to length 2 under a sample of constraint sets — a small
// exhaustive slice of the completeness theorem.
func TestProofSystemAgreesWithProverExhaustively(t *testing.T) {
	universe := core.L("A", "B")
	var lists []core.List
	lists = append(lists, nil, core.L("A"), core.L("B"), core.L("A", "B"), core.L("B", "A"))
	var allODs []core.OD
	for _, l := range lists {
		for _, r := range lists {
			allODs = append(allODs, core.NewOD(l, r))
		}
	}
	for _, m := range [][]core.OD{
		{},
		{core.NewOD(core.L("A"), core.L("B"))},
		{core.NewOD(core.L("A"), core.L("A", "B"))},
		core.OrderCompat(core.L("A"), core.L("B")),
		{core.ConstantOD("A")},
	} {
		table, err := armstrong.NewBuilder(0).CanonicalTable(m, universe)
		if err != nil {
			t.Fatal(err)
		}
		p := prover.New(m)
		for _, od := range allODs {
			implied, err := p.Implies(od)
			if err != nil {
				t.Fatal(err)
			}
			holds, _, err := table.Satisfies(od)
			if err != nil {
				t.Fatal(err)
			}
			if implied != holds {
				t.Fatalf("under %s, %s: prover=%v table=%v",
					core.ODsString(m), od, implied, holds)
			}
		}
	}
}

// TestFDProofBridge: the prover's FD fast path and the proof synthesizer
// agree — every Armstrong-implied FD-form OD gets a verified proof.
func TestFDProofBridge(t *testing.T) {
	asm := []core.OD{
		core.NewOD(core.L("A"), core.L("A", "B")),
		core.NewOD(core.L("B", "C"), core.L("B", "C", "D")),
	}
	x, y := core.L("A", "C"), core.L("D", "B")
	ok, err := prover.New(asm).Implies(core.NewOD(x, x.Concat(y)))
	if err != nil || !ok {
		t.Fatalf("prover should accept the FD-form OD: %v %v", ok, err)
	}
	proof, err := inference.ProveTheorem(asm, func(b *inference.Builder) int {
		steps := []int{b.Assume(asm[0]), b.Assume(asm[1])}
		return b.FDImplication(steps, x, y)
	})
	if err != nil {
		t.Fatal(err)
	}
	concl, _ := proof.Conclusion()
	if !concl.Equal(core.NewOD(x, x.Concat(y))) {
		t.Errorf("proof concludes %s", concl)
	}
}
