package armstrong

import (
	"context"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
)

// TestDiscoverArmstrongRoundTrip holds discovery to the theorem instead of to
// another discoverer. An Armstrong relation for M satisfies exactly M⁺ (§4),
// so discovery run on it must find a set that implies, within its caps,
// exactly what M implies: every OD M implies holds on the table and must
// follow from what discovery accepted, and nothing M does not imply may. Both
// constructions of the table are checked, at caps 2/2 and 2/3, with a prover
// deciding both sides. The oracle shares no code with discovery's candidate
// space, caps or constants handling, which is what every comparison of
// Pipeline with Discover shares.
func TestDiscoverArmstrongRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	all := L("A", "B", "C", "D", "E")
	b := NewBuilder(0)
	checks := 0
	for draw := 0; draw < 40; draw++ {
		universe := all[:3+rng.Intn(3)]
		var m []core.OD
		for j := 0; j < 1+rng.Intn(3); j++ {
			m = append(m, core.RandOD(rng, universe, 2))
		}
		canonical, err := b.CanonicalTable(m, universe)
		if err != nil {
			t.Fatalf("M = %s: %v", core.ODsString(m), err)
		}
		enumeration, err := EnumerationTable(m, universe)
		if err != nil {
			t.Fatalf("M = %s: %v", core.ODsString(m), err)
		}
		want := prover.New(m)
		for _, tc := range []struct {
			name  string
			table *core.Relation
		}{{"canonical", canonical}, {"enumeration", enumeration}} {
			for _, maxRHS := range []int{2, 3} {
				res, err := discover.Pipeline(context.Background(), tc.table, discover.PipelineOptions{
					Options: discover.Options{MaxLHS: 2, MaxRHS: maxRHS},
					Workers: 1,
				})
				if err != nil {
					t.Fatalf("M = %s, %s table: %v", core.ODsString(m), tc.name, err)
				}
				got := prover.New(res.ODs)
				for _, lhs := range enumerateLists(universe, 2) {
					for _, rhs := range enumerateLists(universe, maxRHS) {
						od := core.NewOD(lhs, rhs)
						implied, err := want.Implies(od)
						if err != nil {
							t.Fatal(err)
						}
						found, err := got.Implies(od)
						if err != nil {
							t.Fatal(err)
						}
						if implied != found {
							t.Fatalf("M = %s, %s table (%d rows), caps 2/%d: M implies %s is %v, discovery's %s implies it is %v",
								core.ODsString(m), tc.name, tc.table.Len(), maxRHS, od, implied, core.ODsString(res.ODs), found)
						}
						checks++
					}
				}
			}
		}
	}
	t.Logf("%d checks", checks)
}
