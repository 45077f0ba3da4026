package catalog

import (
	"context"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// TestSeedGeneration: ResetTo over the unchanged declared set seeds the
// generation forward and leaves everything else alone.
func TestSeedGeneration(t *testing.T) {
	c := New()
	c.Apply([]Mutation{{ODs: mustODs(t, "[A] -> [B]")}})
	base := c.Generation()
	c.ResetTo(base+10, c.Declared())
	if got := c.Generation(); got != base+10 {
		t.Fatalf("seeded generation = %d, want %d", got, base+10)
	}
	// Seeding backwards is a no-op: generations only move forward.
	c.ResetTo(base, c.Declared())
	if got := c.Generation(); got != base+10 {
		t.Fatalf("backward seed moved generation to %d", got)
	}
	// The declared set is untouched and an effective apply still bumps.
	if ok, _ := c.Implies(od(t, "[A] -> [B]")); !ok {
		t.Fatal("seed lost the declared set")
	}
	c.Apply([]Mutation{{ODs: mustODs(t, "[B] -> [C]")}})
	if got := c.Generation(); got != base+11 {
		t.Fatalf("post-seed apply generation = %d, want %d", got, base+11)
	}
}

func TestSeedGenerationInvalidatesNothing(t *testing.T) {
	c := New()
	c.Apply([]Mutation{{ODs: mustODs(t, "[A] -> [B]; [B] -> [C]")}})
	// Warm the memo with a verdict only the search finds.
	if ok, _ := c.Implies(od(t, "[A] -> [A, C]")); !ok {
		t.Fatal("closure broken")
	}
	c.ResetTo(c.Generation()+3, c.Declared())
	if st := c.Stats(); st.Memo.Size != 1 {
		t.Fatalf("a seed over the unchanged set kept %d implied verdicts, want 1", st.Memo.Size)
	}
	// Same set, same verdict — and the verdict must carry the new stamp.
	impl, _, gen, err := c.ImpliesAllWitness(mustODs(t, "[A] -> [A, C]"))
	if err != nil || !impl {
		t.Fatalf("post-seed implies = %v, %v", impl, err)
	}
	if gen != c.Generation() {
		t.Fatalf("verdict stamped %d, generation is %d", gen, c.Generation())
	}
}

func TestResetToReplacesSet(t *testing.T) {
	c := New()
	c.Apply([]Mutation{{ODs: mustODs(t, "[A] -> [B]; [X] -> [Y]")}})
	st := c.ResetTo(40, mustODs(t, "[A] -> [B]; [B] -> [C]"))
	if c.Generation() != 40 {
		t.Fatalf("generation = %d, want 40", c.Generation())
	}
	if st.Declared != 2 {
		t.Fatalf("declared = %d, want 2", st.Declared)
	}
	if ok, _ := c.Implies(od(t, "[A] -> [C]")); !ok {
		t.Fatal("reset set does not imply [A] -> [C]")
	}
	if ok, _ := c.Implies(od(t, "[X] -> [Y]")); ok {
		t.Fatal("reset kept the withdrawn [X] -> [Y]")
	}
}

func TestResetToDivergedSetBumpsLocally(t *testing.T) {
	c := New()
	c.Apply([]Mutation{{ODs: mustODs(t, "[A] -> [B]")}})
	c.ResetTo(100, c.Declared())
	before := c.Generation()
	// Target generation does not advance but the set changes: the local
	// generation must still move, or a reader of the old set could file its
	// verdicts under the number the new set answers to.
	c.ResetTo(50, mustODs(t, "[C] -> [D]"))
	if c.Generation() <= before {
		t.Fatalf("diverged reset left generation at %d (was %d)", c.Generation(), before)
	}
	if ok, _ := c.Implies(od(t, "[A] -> [B]")); ok {
		t.Fatal("diverged reset kept the old set")
	}
}

// TestResetToKeepsOnlyWhatStands: a bootstrap tells the verdict store both
// directions of the change, as a live Apply does. Across a reset to a
// superset the implied verdicts stand and the refutations are revalidated
// against what was added; across a reset to a subset the implied verdicts
// fall and the refutations stand; a diverged set at a generation that does
// not advance still bumps the generation. After each, every re-asked verdict
// is the one a fresh prover over the new declared set reaches.
func TestResetToKeepsOnlyWhatStands(t *testing.T) {
	c := New(WithWorkers(1))
	c.Apply([]Mutation{{ODs: mustODs(t, "[A] -> [B]; [B] -> [C]")}})
	held := od(t, "[A] -> [A, C]") // implied, but only a search finds it
	refuted := od(t, "[C] -> [A]")
	flips := od(t, "[A] -> [D]") // refuted until [C] -> [D] joins

	type expect struct {
		q    core.OD
		tier string // "" where it depends on which witness the search happened to file
	}
	ask := func(step string, wants ...expect) {
		t.Helper()
		declared := c.Declared()
		ref := prover.New(declared, prover.WithWorkers(1))
		for _, e := range wants {
			want, err := ref.Implies(e.q)
			if err != nil {
				t.Fatal(err)
			}
			ok, w, tier, err := c.snapshot().impliesWitness(context.Background(), e.q)
			if err != nil || ok != want {
				t.Fatalf("%s: %s: catalog says %v (%v), a fresh prover %v", step, e.q, ok, err, want)
			}
			if !ok {
				checkCatalogWitness(t, declared, e.q, w)
			}
			if e.tier != "" && tier != e.tier {
				t.Errorf("%s: %s answered by tier %q, want %q", step, e.q, tier, e.tier)
			}
		}
	}

	ask("warm", expect{held, TierSearch}, expect{refuted, TierSearch}, expect{flips, TierSearch})
	ask("warm, re-asked", expect{held, TierMemo}, expect{refuted, TierNegative}, expect{flips, TierNegative})

	c.ResetTo(c.Generation()+5, mustODs(t, "[A] -> [B]; [B] -> [C]; [C] -> [D]"))
	if st := c.Stats(); st.Memo.Size != 1 || st.Negative != 1 {
		t.Errorf("after a reset to a superset: %d implied and %d refuted verdicts stored, want 1 and 1", st.Memo.Size, st.Negative)
	}
	ask("superset", expect{held, TierMemo}, expect{refuted, TierNegative}, expect{flips, TierClosure})

	c.ResetTo(c.Generation()+1, mustODs(t, "[A] -> [B]; [B] -> [C]"))
	if st := c.Stats(); st.Memo.Size != 0 || st.Negative != 1 {
		t.Errorf("after a reset to a subset: %d implied and %d refuted verdicts stored, want 0 and 1", st.Memo.Size, st.Negative)
	}
	ask("subset", expect{held, TierSearch}, expect{refuted, TierNegative}, expect{flips, TierSearch})

	// As many ODs as before, but [B] -> [C] left for [X] -> [Y]: what left is
	// not to be read off the sizes alone.
	before := c.Generation()
	c.ResetTo(before-3, mustODs(t, "[A] -> [B]; [X] -> [Y]"))
	if got := c.Generation(); got != before+1 {
		t.Errorf("diverged reset at a non-advancing generation: generation %d -> %d, want one bump", before, got)
	}
	ask("diverged", expect{held, TierSearch}, expect{refuted, TierNegative}, expect{flips, TierNegative})
}

// TestReplayMatchesLiveCatalog is the differential guard for the generation
// trajectory: for random mutation histories, ResetTo onto the start plus one
// Replay of every batch must land on the generation and the declared set a
// live catalog reaches with one Apply per batch — that equality is what
// makes snapshot-based recovery land on the leader's numbering.
func TestReplayMatchesLiveCatalog(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(7))
	randOD := func() core.OD {
		l := core.Attribute(attrs[rng.Intn(len(attrs))])
		r := core.Attribute(attrs[rng.Intn(len(attrs))])
		return core.OD{LHS: core.List{l}, RHS: core.List{r}}
	}
	for trial := 0; trial < 50; trial++ {
		base := []core.OD{randOD(), randOD()}
		var batches [][]Mutation
		for i := 0; i < 12; i++ {
			muts := []Mutation{{
				ODs:    []core.OD{randOD()},
				Remove: rng.Intn(3) == 0,
			}}
			batches = append(batches, muts)
		}

		live := New()
		live.Apply([]Mutation{{ODs: base}})
		start := live.Generation()
		for _, muts := range batches {
			live.Apply(muts)
		}

		replayed := New()
		replayed.ResetTo(start, base)
		st := replayed.Replay(batches)
		if st.Generation != live.Generation() || replayed.Generation() != live.Generation() {
			t.Fatalf("trial %d: replay reached generation %d (stats %d), the live catalog %d",
				trial, replayed.Generation(), st.Generation, live.Generation())
		}
		if got, want := core.ODsString(replayed.Declared()), core.ODsString(live.Declared()); got != want {
			t.Fatalf("trial %d: replay declared %s, the live catalog %s", trial, got, want)
		}
	}
}
