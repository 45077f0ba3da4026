package discover

import (
	"context"
	"testing"

	"odlib/internal/armstrong"
	"odlib/internal/core"
	"odlib/internal/prover"
)

// decodeM maps fuzzer bytes to a universe of 3 to 5 attributes and one to
// four ODs over it, each side up to two attributes long (repeats allowed).
// Bytes past the end read as zero.
func decodeM(data []byte) (core.List, []core.OD) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	universe := core.L("A", "B", "C", "D", "E")[:3+next()%3]
	list := func() core.List {
		var l core.List
		for n := next() % 3; n > 0; n-- {
			l = append(l, universe[next()%len(universe)])
		}
		return l
	}
	m := make([]core.OD, 1+next()%4)
	for i := range m {
		m[i].LHS = list()
		m[i].RHS = list()
	}
	return universe, m
}

// allLists is every duplicate-free list over universe of length 0 to
// maxLen. It is written out here rather than taken from enumerateLists,
// which is the pipeline's own lattice: an oracle must not share the
// candidate space of the code it checks.
func allLists(universe core.List, maxLen int) []core.List {
	out := []core.List{nil}
	for from := 0; from < len(out); from++ {
		if len(out[from]) == maxLen {
			continue
		}
		for _, a := range universe {
			if !out[from].Contains(a) {
				out = append(out, out[from].Concat(core.List{a}))
			}
		}
	}
	return out
}

// FuzzDiscoverArmstrong is TestDiscoverArmstrongRoundTrip (internal/armstrong)
// with the fuzzer choosing M, and with each pruning path forced in turn:
// Armstrong's theorem says both of M's Armstrong tables satisfy exactly M⁺,
// so whatever Pipeline accepts on either table — at caps 2/2 and 2/3, pruning
// through the model table or through a catalog, minimal or KeepRedundant —
// must imply, among the list ODs within the caps, exactly what M implies. It
// lives beside the pipeline because the pruning path is chosen inside this
// package; the check is the armstrong test's: a prover over M against a
// prover over the accepted ODs, OD by OD.
func FuzzDiscoverArmstrong(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 2, 1, 2, 1, 0, 0, 0, 0, 2, 2, 1}) // {[C] -> [A]; [] -> []; [] -> [C, B]} over A, B, C
	f.Add([]byte{2, 2, 1, 0, 1, 1})                   // {[A] -> [B]; [] -> []; [] -> []} over A-E
	f.Add([]byte{1, 3, 1, 2, 2, 0, 1, 0, 1, 1, 2})    // {[C] -> [A, B]; [] -> [B]; [A, A] -> []; [] -> []} over A-D
	f.Add([]byte{2, 3, 2, 3, 4, 1, 0, 1, 4, 2, 1, 0, 2, 2, 3, 0, 1, 2, 0, 1, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		universe, m := decodeM(data)
		canonical, err := armstrong.NewBuilder(0).CanonicalTable(m, universe)
		if err != nil {
			t.Fatalf("M = %s: %v", core.ODsString(m), err)
		}
		enumeration, err := armstrong.EnumerationTable(m, universe)
		if err != nil {
			t.Fatalf("M = %s: %v", core.ODsString(m), err)
		}
		want := prover.New(m)
		for _, maxRHS := range []int{2, 3} {
			var ods []core.OD
			var implied []bool
			for _, lhs := range allLists(universe, 2) {
				for _, rhs := range allLists(universe, maxRHS) {
					od := core.NewOD(lhs, rhs)
					ok, err := want.Implies(od)
					if err != nil {
						t.Fatal(err)
					}
					ods, implied = append(ods, od), append(implied, ok)
				}
			}
			for _, table := range []struct {
				name string
				r    *core.Relation
			}{{"canonical", canonical}, {"enumeration", enumeration}} {
				for _, keep := range []bool{false, true} {
					for _, useTable := range []bool{true, false} {
						res, err := pipeline(context.Background(), table.r, PipelineOptions{
							Options: Options{MaxLHS: 2, MaxRHS: maxRHS, KeepRedundant: keep},
							Workers: 1,
						}, useTable)
						if err != nil {
							t.Fatalf("M = %s, %s table: %v", core.ODsString(m), table.name, err)
						}
						got := prover.New(res.ODs)
						for i, od := range ods {
							found, err := got.Implies(od)
							if err != nil {
								t.Fatal(err)
							}
							if found != implied[i] {
								t.Fatalf("M = %s, %s table (%d rows), caps 2/%d, keepRedundant %v, model-table pruning %v: "+
									"M implies %s is %v, discovery's %s implies it is %v",
									core.ODsString(m), table.name, table.r.Len(), maxRHS, keep, useTable,
									od, implied[i], core.ODsString(res.ODs), found)
							}
						}
					}
				}
			}
		}
	})
}
