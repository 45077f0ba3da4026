package odlib

// One benchmark per experiment of DESIGN.md's index on the library's own
// packages: proofs (E12), completeness constructions (E13), the prover
// (E14), FD-closure proofs (E18) and the ReduceOrder ablation. The
// experiments on the engine and planner (E1–E11, E15) are paper/'s.
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"odlib/internal/armstrong"
	"odlib/internal/core"
	"odlib/internal/inference"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
)

func mustODs(b *testing.B, text string) []core.OD {
	b.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil {
		b.Fatal(err)
	}
	return ods
}

// E12 — proof generation and verification for the derived theorems.
func BenchmarkProofPartition(b *testing.B) {
	w := core.L("W")
	asm := []core.OD{
		core.NewOD(w, core.L("A", "B", "C")),
		core.NewOD(w, core.L("C", "A", "B")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := inference.ProveTheorem(asm, func(bld *inference.Builder) int {
			f, _ := bld.Partition(bld.Assume(asm[0]), bld.Assume(asm[1]))
			return f
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProofPermutation covers Theorem 14's heavier derivation.
func BenchmarkProofPermutation(b *testing.B) {
	x := core.L("A", "B")
	y := core.L("C", "D")
	asm := []core.OD{core.NewOD(x, x.Concat(y))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := inference.ProveTheorem(asm, func(bld *inference.Builder) int {
			return bld.PermutationFD(bld.Assume(asm[0]), core.L("B", "A"), core.L("D", "C"))
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// E13 — completeness constructions: canonical vs enumeration tables.
func BenchmarkArmstrongCanonical(b *testing.B) {
	m := mustODs(b, "[A] -> [B]; [B] -> [C]")
	universe := core.L("A", "B", "C", "D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.NewBuilder(0).CanonicalTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArmstrongEnumeration(b *testing.B) {
	m := mustODs(b, "[A] -> [B]; [B] -> [C]")
	universe := core.L("A", "B", "C", "D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.EnumerationTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// E14 — prover scaling in the number of mentioned attributes.
func BenchmarkProverImplication(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			attr := func(i int) core.Attribute { return core.Attribute(fmt.Sprintf("A%d", i)) }
			var m []core.OD
			for i := 0; i+1 < n; i++ {
				m = append(m, core.NewOD(core.List{attr(i)}, core.List{attr(i + 1)}))
			}
			refuted := core.NewOD(core.List{attr(n - 1)}, core.List{attr(0)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := prover.New(m) // fresh prover: no cache effects
				ok, err := p.Implies(refuted)
				if err != nil || ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// E18 — FD-closure proof synthesis (constructive Theorem 16).
func BenchmarkFDImplicationProof(b *testing.B) {
	asm := []core.OD{
		core.NewOD(core.L("A"), core.L("A", "B")),
		core.NewOD(core.L("B"), core.L("B", "C")),
		core.NewOD(core.L("C"), core.L("C", "D")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := inference.ProveTheorem(asm, func(bld *inference.Builder) int {
			steps := make([]int, len(asm))
			for k, od := range asm {
				steps[k] = bld.Assume(od)
			}
			return bld.FDImplication(steps, core.L("A"), core.L("D"))
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: FD-only ReduceOrder vs the OD-augmented ReduceOrder⁺.
func BenchmarkReduceOrderFDOnly(b *testing.B) {
	c := rewrite.NewConstraints(nil, mustODs(b, "[month] -> [quarter]; [day] -> [x]"))
	order := core.L("year", "quarter", "month", "x", "day")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.ReduceOrderFD(context.Background(), order, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceOrderPlus(b *testing.B) {
	c := rewrite.NewConstraints(nil, mustODs(b, "[month] -> [quarter]; [day] -> [x]"))
	order := core.L("year", "quarter", "month", "x", "day")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.ReduceOrder(order, c); err != nil {
			b.Fatal(err)
		}
	}
}
