package catalog

import (
	"fmt"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// benchInstance builds a transitive chain A0 ↦ A1 ↦ … ↦ A(n-1) and two
// queries that must go through the pattern search: the FD-form of the chain
// ends (implied) and the reversed ends (refuted, exhausting the search).
func benchInstance(n int) (m []core.OD, implied, refuted core.OD) {
	attr := func(i int) core.List { return core.L(fmt.Sprintf("A%d", i)) }
	for i := 0; i+1 < n; i++ {
		m = append(m, core.NewOD(attr(i), attr(i+1)))
	}
	implied = core.NewOD(attr(0), attr(0).Concat(attr(n-1)))
	refuted = core.NewOD(attr(n-1), attr(0))
	return m, implied, refuted
}

// BenchmarkImpliesCold is the uncached baseline: every question pays the
// full decision procedure against a fresh prover, the way one-shot library
// callers did before the catalog existed.
func BenchmarkImpliesCold(b *testing.B) {
	m, implied, refuted := benchInstance(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := prover.New(m)
		q := implied
		if i%2 == 1 {
			q = refuted
		}
		if _, err := p.Implies(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogImpliesMemoized is the repeated-query workload through the
// catalog: after the first miss per question, every answer is a memo hit.
func BenchmarkCatalogImpliesMemoized(b *testing.B) {
	m, implied, refuted := benchInstance(10)
	c := New()
	c.Add(m...)
	if _, err := c.Implies(implied); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Implies(refuted); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := implied
		if i%2 == 1 {
			q = refuted
		}
		if _, err := c.Implies(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogImpliesClosure measures the constant-time closure fast
// path, which answers chain queries without prover or memo.
func BenchmarkCatalogImpliesClosure(b *testing.B) {
	m, _, _ := benchInstance(10)
	c := New()
	c.Add(m...)
	q := core.NewOD(core.L("A0"), core.L("A9"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := c.Implies(q)
		if err != nil || !ok {
			b.Fatalf("Implies = %v, %v", ok, err)
		}
	}
}

// BenchmarkCatalogImpliesParallel is the memoized workload under reader
// concurrency: shard locking should keep hits near the serial cost.
func BenchmarkCatalogImpliesParallel(b *testing.B) {
	m, implied, refuted := benchInstance(10)
	c := New()
	c.Add(m...)
	if _, err := c.Implies(implied); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Implies(refuted); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := implied
			if i%2 == 1 {
				q = refuted
			}
			i++
			if _, err := c.Implies(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReduceOrderMemoized measures repeated ReduceOrder against an
// unchanged catalog; all implication sub-questions come from the tiers in
// front of the prover, which the search counter confirms.
func BenchmarkReduceOrderMemoized(b *testing.B) {
	c := New()
	c.Add(core.NewOD(core.L("month"), core.L("quarter")))
	order := core.L("year", "quarter", "month")
	if _, err := c.ReduceOrder(order); err != nil {
		b.Fatal(err)
	}
	searches := c.Stats().Prover.Searches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReduceOrder(order); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := c.Stats().Prover.Searches; got != searches {
		b.Fatalf("%d searches during a warmed-up loop", got-searches)
	}
}
