package main

import (
	"context"
	"testing"
)

// The generator contract: the program sees only generated inputs, the same
// seed gives byte-identical inputs, and another seed gives different inputs
// with the same tier mix.

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 1, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 1, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 1 generated %s then %s", name, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (%s)", name, a.hash())
		}
		t.Logf("%s seed 1 workload_hash %s", name, a.hash())
	}
}

// searchShare replays the first n ops of a workload on a warmed-up stack and
// returns the share of implication questions that reached the search tier.
func searchShare(t *testing.T, name string, seed int64, n int) float64 {
	t.Helper()
	ctx := context.Background()
	w, err := generate(name, seed, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := setUp(ctx, w, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	before := b.counts().cat.Tiers
	p := runPhase(ctx, w, b.sessions, w.lists, 0, n/len(w.lists))
	if _, failed := p.counts(); failed > 0 {
		t.Fatalf("%s seed %d: %d ops failed: %v", name, seed, failed, p.tallies[0].errs)
	}
	after := b.counts().cat.Tiers
	search := float64(after.Search - before.Search)
	all := search + float64(after.Trivial-before.Trivial) + float64(after.Closure-before.Closure) +
		float64(after.Negative-before.Negative) + float64(after.Memo-before.Memo)
	return search / all
}

func TestTierMix(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		if s := searchShare(t, "prove-hot", seed, 4000); s >= 0.01 {
			t.Errorf("prove-hot seed %d: %.4f of questions reached the search tier, want < 0.01", seed, s)
		}
		if s := searchShare(t, "prove-search", seed, 400); s <= 0.99 {
			t.Errorf("prove-search seed %d: %.4f of questions reached the search tier, want > 0.99", seed, s)
		}
	}
}
