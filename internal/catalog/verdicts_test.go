package catalog

import (
	"fmt"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// storeSize is what the capacity bounds: stored verdicts of both kinds.
func storeSize(s *verdicts) int {
	memo, refuted := s.stats()
	return memo.Size + refuted
}

func stored(s *verdicts, key string, gen uint64) bool {
	_, _, ok := s.get(key, gen)
	return ok
}

// TestVerdictStoreBounded pins the size bound and what a put into a full
// store costs: after 4 × capacity distinct puts the store holds at most its
// capacity, every put past the first capacity either evicted exactly one
// resident or was dropped, and choosing the victim never looked at more than
// evictionSample residents however many were stored.
func TestVerdictStoreBounded(t *testing.T) {
	w := core.MustPattern(core.L("a"))
	for _, capacity := range []int{1, 8, 64} {
		s := newVerdicts(capacity)
		puts, dropped := 4*capacity, 0
		for i := 0; i < puts; i++ {
			key := fmt.Sprintf("key-%d", i)
			s.put(key, core.OD{}, prover.Verdict{Implied: i%2 == 0, Witness: w, Cost: uint64(i % 17)}, 0)
			if !stored(s, key, 0) {
				dropped++
			}
			size := storeSize(s)
			if size > capacity {
				t.Fatalf("capacity %d: %d verdicts stored after %d puts", capacity, size, i+1)
			}
			if _, _, _, examined := s.cheapest(); examined != min(size, evictionSample) {
				t.Fatalf("capacity %d: victim choice examined %d of %d residents, want %d",
					capacity, examined, size, min(size, evictionSample))
			}
		}
		memo, _ := s.stats()
		if size := storeSize(s); size != capacity || memo.Capacity != capacity {
			t.Errorf("capacity %d: %d stored under a reported bound of %d", capacity, size, memo.Capacity)
		}
		if got, want := int(memo.Evictions)+dropped, puts-capacity; got != want {
			t.Errorf("capacity %d: %d evictions + %d dropped = %d, want %d: one per put into a full store",
				capacity, memo.Evictions, dropped, got, want)
		}
	}
}

// TestVerdictStoreCostAwareEviction pins the eviction policy on a store small
// enough that the sample is the whole store: a verdict cheaper than every
// resident is dropped, one that cost at least as much evicts the cheapest
// resident, whichever kind that is.
func TestVerdictStoreCostAwareEviction(t *testing.T) {
	w := core.MustPattern(core.L("a"))
	implied := func(cost uint64) prover.Verdict { return prover.Verdict{Implied: true, Cost: cost} }
	refuted := func(cost uint64) prover.Verdict { return prover.Verdict{Witness: w, Cost: cost} }

	s := newVerdicts(4)
	s.put("i100", core.OD{}, implied(100), 0)
	s.put("r50", core.OD{}, refuted(50), 0)
	s.put("i55", core.OD{}, implied(55), 0)
	s.put("r60", core.OD{}, refuted(60), 0)

	s.put("cheap", core.OD{}, implied(5), 0)
	if stored(s, "cheap", 0) || storeSize(s) != 4 {
		t.Fatal("a verdict cheaper than every resident was admitted to a full store")
	}
	if memo, _ := s.stats(); memo.Evictions != 0 {
		t.Fatalf("dropping a cheap verdict counted %d evictions", memo.Evictions)
	}

	for _, step := range []struct {
		key    string
		v      prover.Verdict
		victim string
	}{
		{"r200", refuted(200), "r50"}, // the cheapest resident is a refutation
		{"i300", implied(300), "i55"}, // now an implied verdict
		{"i60", implied(60), "r60"},   // equal cost is enough
	} {
		s.put(step.key, core.OD{}, step.v, 0)
		if !stored(s, step.key, 0) || stored(s, step.victim, 0) {
			t.Fatalf("put %s: stored=%v, %s still stored=%v; want it to replace the cheapest resident",
				step.key, stored(s, step.key, 0), step.victim, stored(s, step.victim, 0))
		}
	}
	if memo, _ := s.stats(); memo.Evictions != 3 || storeSize(s) != 4 {
		t.Fatalf("after three replacements: %d evictions, %d stored", memo.Evictions, storeSize(s))
	}
	if implied, got, ok := s.get("r200", 0); !ok || implied || got != w {
		t.Fatalf("stored refutation read back as implied=%v witness=%v ok=%v", implied, got, ok)
	}
}

// TestVerdictStoreRefusesOtherGenerations: the store is valid for exactly one
// generation, so a stale entry cannot exist. A reader of a superseded (or not
// yet published) generation misses, and a verdict decided against one files
// nothing and displaces nothing, whatever it cost.
func TestVerdictStoreRefusesOtherGenerations(t *testing.T) {
	s := newVerdicts(1)
	s.put("k1", core.OD{}, prover.Verdict{Implied: true, Cost: 1}, 0)
	s.advance(1, nil, false) // restamped: nothing was added or withdrawn
	if !stored(s, "k1", 1) {
		t.Fatal("a verdict did not survive a mutation that changed nothing")
	}
	if stored(s, "k1", 0) || stored(s, "k1", 2) {
		t.Fatal("a reader of another generation was answered")
	}
	for _, gen := range []uint64{0, 2} {
		s.put("k2", core.OD{}, prover.Verdict{Implied: true, Cost: 1 << 40}, gen)
		if stored(s, "k2", 1) || stored(s, "k2", gen) || !stored(s, "k1", 1) {
			t.Fatalf("a verdict decided against generation %d was filed in a store at generation 1", gen)
		}
	}
	if memo, _ := s.stats(); memo.Evictions != 0 || memo.Size != 1 || memo.Generation != 1 {
		t.Fatalf("store after refused puts: %+v", memo)
	}
}

// The fuzzed history is a sequence of 4-byte operations over six attributes
// and at most eight declared ODs; fuzzList and fuzzOD decode its operands.
const (
	fuzzAdd = iota
	fuzzRemove
	fuzzBatch
	fuzzReset
	fuzzAsk
	fuzzKinds
)

// fuzzList decodes one byte into a list of one or two of the attributes a–f.
func fuzzList(b byte) core.List {
	attr := func(i byte) core.Attribute { return core.Attribute(rune('a' + i%6)) }
	if (b/6)%2 == 0 {
		return core.List{attr(b)}
	}
	return core.List{attr(b), attr(b / 12)}
}

func fuzzOD(lhs, rhs byte) core.OD { return core.NewOD(fuzzList(lhs), fuzzList(rhs)) }

// fuzzListByte is fuzzList's inverse, for writing seeds.
func fuzzListByte(attrs ...int) byte {
	if len(attrs) == 1 {
		return byte(attrs[0])
	}
	return byte(attrs[0] + 6 + 12*attrs[1])
}

// FuzzVerdictStoreAgainstProver drives a history of add / remove / mixed
// batch / ResetTo / ask through a catalog and holds the verdict store to the
// prover: after every operation every question asked so far — whichever tier
// serves it, whatever the store kept or dropped across the mutations since —
// gets the verdict a fresh sequential prover over the current declared set
// reaches, every served witness satisfies the declared set and falsifies its
// question, and a question asked twice in a row never searches twice.
func FuzzVerdictStoreAgainstProver(f *testing.F) {
	const a, b, c, d = 0, 1, 2, 3
	op := func(kind int, operands ...byte) []byte {
		return append([]byte{byte(kind)}, append(operands, 0, 0, 0)[:3]...)
	}
	join := func(ops ...[]byte) (history []byte) {
		for _, o := range ops {
			history = append(history, o...)
		}
		return history
	}
	la, lb, lc, ld := fuzzListByte(a), fuzzListByte(b), fuzzListByte(c), fuzzListByte(d)
	// The README example: [month] -> [quarter], ask [year, month] -> [year,
	// quarter], remove the constraint, ask again.
	f.Add(join(
		op(fuzzAdd, la, lb),
		op(fuzzAsk, fuzzListByte(c, a), fuzzListByte(c, b)),
		op(fuzzRemove, 0),
		op(fuzzAsk, fuzzListByte(c, a), fuzzListByte(c, b))))
	// The churn shape of TestNegativeClosureServesAndRevalidates: a refuted
	// and a search-implied question across unrelated adds and removes.
	f.Add(join(
		op(fuzzAdd, la, lb),
		op(fuzzAsk, lb, la),
		op(fuzzAsk, la, fuzzListByte(a, b)),
		op(fuzzAdd, lc, ld),
		op(fuzzRemove, 1),
		op(fuzzAdd, lc, ld),
		op(fuzzRemove, 1)))
	// A witness that an added OD rejects: [a] -> [c] is refuted under
	// [a] -> [b] and implied once [b] -> [c] joins.
	f.Add(join(
		op(fuzzAdd, la, lb),
		op(fuzzAsk, la, lc),
		op(fuzzAdd, lb, lc)))
	// An add-then-remove of the same OD in one batch (the high bit of the
	// third operand), beside an effective add.
	f.Add(join(
		op(fuzzAdd, la, lb),
		op(fuzzAsk, lb, la),
		op(fuzzAsk, la, fuzzListByte(a, b)),
		op(fuzzBatch, lc, ld, 0x80)))
	// ResetTo at a generation that does not advance, swapping [b] -> [c] for
	// [c] -> [d] (as many ODs as before), then a superset one generation on.
	f.Add(join(
		op(fuzzAdd, la, lb),
		op(fuzzAdd, lb, lc),
		op(fuzzAsk, la, fuzzListByte(a, c)),
		op(fuzzAsk, lc, la),
		op(fuzzReset, 0b01, lc, ld),
		op(fuzzReset+2*fuzzKinds, 0b11, lb, lc)))

	f.Fuzz(func(t *testing.T, history []byte) {
		cat := New(WithWorkers(1))
		var asked []core.OD
		// check asks q twice and compares with the reference prover.
		check := func(ref *prover.Prover, declared []core.OD, q core.OD) {
			t.Helper()
			want, err := ref.Implies(q)
			if err != nil {
				t.Fatalf("reference prover: %v", err)
			}
			for pass := 0; pass < 2; pass++ {
				before := cat.Stats().Tiers.Search
				got, w, err := cat.ImpliesWitness(q)
				if err != nil || got != want {
					t.Fatalf("%s under %s: catalog says %v (%v), a fresh prover %v",
						q, core.ODsString(declared), got, err, want)
				}
				if !got {
					checkCatalogWitness(t, declared, q, w)
				}
				if pass == 1 && cat.Stats().Tiers.Search != before {
					t.Fatalf("%s searched twice in a row", q)
				}
			}
		}
		for ; len(history) >= 4; history = history[4:] {
			kind, b1, b2, b3 := int(history[0]), history[1], history[2], history[3]
			declared := cat.Declared()
			room := len(declared) < 8
			switch kind % fuzzKinds {
			case fuzzAdd:
				if room {
					cat.Add(fuzzOD(b1, b2))
				}
			case fuzzRemove:
				if len(declared) > 0 {
					cat.Remove(declared[int(b1)%len(declared)])
				}
			case fuzzBatch:
				var muts []Mutation
				if room {
					muts = append(muts, Mutation{ODs: []core.OD{fuzzOD(b1, b2)}})
				}
				if len(declared) > 0 {
					muts = append(muts, Mutation{Remove: true, ODs: []core.OD{declared[int(b3)%len(declared)]}})
				}
				if b3&0x80 != 0 {
					flicker := []core.OD{fuzzOD(b2, b1)}
					muts = append(muts, Mutation{ODs: flicker}, Mutation{Remove: true, ODs: flicker})
				}
				cat.Apply(muts)
			case fuzzReset:
				var next []core.OD
				for i, od := range declared {
					if b1&(1<<i) != 0 {
						next = append(next, od)
					}
				}
				if b2 != 0xff && len(next) < 8 {
					next = append(next, fuzzOD(b2, b3))
				}
				// One below, at, or one above the current generation.
				gen := cat.Generation() + uint64(kind/fuzzKinds%3)
				cat.ResetTo(max(gen, 1)-1, next)
			case fuzzAsk:
				if q := fuzzOD(b1, b2); len(asked) < 16 {
					asked = append(asked, q)
				}
			}
			declared = cat.Declared()
			if len(declared) > 8 {
				t.Fatalf("harness: %d ODs declared", len(declared))
			}
			ref := prover.New(declared, prover.WithWorkers(1))
			for _, q := range asked {
				check(ref, declared, q)
			}
		}
	})
}
