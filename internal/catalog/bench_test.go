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
// catalog: after the first miss per question every answer is one lookup in
// the verdict store — alternately an implied verdict (tier memo) and a
// refutation with its witness (tier negative).
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
// path, which answers chain queries without prover or verdict store.
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
// concurrency. Readers never exclude each other — a hit takes two shared
// locks (the catalog's, to copy the generation pointer, and the store's) and
// one atomic add (the tier's hit counter) — but every one of those writes a
// cache line all readers share, which is what serialises them.
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

// BenchmarkCatalogImpliesFullStore asks only questions nobody asked before —
// each one a search and a put — with the store half full at the end of the
// run (below) and after 2.5 × its capacity in distinct questions has already
// gone through it (full). A put into a full store samples evictionSample
// residents, so the two cost the same; when it scanned for its victim the
// second cost thirty to forty times the first.
func BenchmarkCatalogImpliesFullStore(b *testing.B) {
	const asked = DefaultMemoCapacity / 2
	for _, tc := range []struct {
		name    string
		prefill int
	}{{"below", 0}, {"full", 5 * asked}} {
		b.Run(tc.name, func(b *testing.B) {
			qs := make([]core.OD, tc.prefill+asked)
			for i := range qs {
				qs[i] = core.NewOD(core.L(fmt.Sprintf("x%d", i)), core.L(fmt.Sprintf("y%d", i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New(WithWorkers(1))
				c.Add(core.NewOD(core.L("a"), core.L("b")))
				for _, q := range qs[:tc.prefill] {
					if _, err := c.Implies(q); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, q := range qs[tc.prefill:] {
					if _, err := c.Implies(q); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*asked), "ns/question")
		})
	}
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

// chainODs declares chains disjoint chains of links single-attribute links
// each, [cK_i] -> [cK_i+1]; a chain's closure is every forward span.
func chainODs(chains, links int) []core.OD {
	attr := func(c, i int) core.List { return core.L(fmt.Sprintf("c%d_%d", c, i)) }
	var out []core.OD
	for c := 0; c < chains; c++ {
		for i := 0; i < links; i++ {
			out = append(out, core.NewOD(attr(c, i), attr(c, i+1)))
		}
	}
	return out
}

// isolatedOD is [name_a] -> [name_b], an OD that composes with nothing else.
func isolatedOD(name string) core.OD {
	return core.NewOD(core.L(name+"_a"), core.L(name+"_b"))
}

// churnShard is the shard bench/'s mutate-churn writes to: 64 chains of 4
// links plus a window of 64 isolated extras — 320 declared, closure 704.
func churnShard() []core.OD {
	out := chainODs(64, 4)
	for k := 0; k < 64; k++ {
		out = append(out, isolatedOD(fmt.Sprintf("x%d", k)))
	}
	return out
}

// benchApplyPair measures one effective Add plus one effective Remove of an
// isolated OD on top of the standing set, mutate-churn's primary operation.
func benchApplyPair(b *testing.B, standing []core.OD) {
	c := New()
	c.Add(standing...)
	isolated := isolatedOD("y")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Add(isolated) != 1 || c.Remove(isolated) != 1 {
			b.Fatal("mutation was not effective")
		}
	}
}

// BenchmarkApplyChurn320 is the pair on mutate-churn's shard, where the
// closure (704) is barely larger than the declared set.
func BenchmarkApplyChurn320(b *testing.B) { benchApplyPair(b, churnShard()) }

// BenchmarkApplyDense8x40 is the pair on 8 chains of 40 links — closure
// 6,560 over 320 declared, the shape where extending and shrinking the
// closure incrementally beats recomputing it.
func BenchmarkApplyDense8x40(b *testing.B) { benchApplyPair(b, chainODs(8, 40)) }
