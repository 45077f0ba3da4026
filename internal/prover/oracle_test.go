package prover

import (
	"fmt"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/fd"
)

// The oracle: the decide this package shipped before the compiled kernel,
// kept verbatim in spirit as the reference every faster path is checked
// against (ROADMAP aim 3). It widens lazily with the same policy — first OD
// of M rejecting the candidate joins the working set — but works on names,
// maps and core.Pattern, computes the split closure with fd.Closure, and its
// search assigns ALL n signs before testing a single OD. Same attribute
// order, same sign order, same halving: so the kernel's sequential search
// must return the oracle's first counterexample, having visited no more
// nodes.

type oracleVerdict struct {
	implied bool
	witness *core.Pattern // compact: over the last round's universe
	nodes   uint64        // enumeration nodes plus widen validations
}

type oracleOD struct{ lhs, rhs []int }

func (c oracleOD) holds(signs []core.Sign) bool {
	cmp := func(idx []int) core.Sign {
		for _, i := range idx {
			if s := signs[i]; s != core.Equal {
				return s
			}
		}
		return core.Equal
	}
	cx, cy := cmp(c.lhs), cmp(c.rhs)
	if cx == core.Equal {
		return cy == core.Equal
	}
	return cy == core.Equal || cy == cx
}

// exhaustiveSearch enumerates every sign assignment (first non-Equal sign
// fixed to Less) and tests the ODs at the leaves only.
func exhaustiveSearch(signs []core.Sign, k int, seenLess bool, cods []oracleOD, target oracleOD, nodes *uint64) bool {
	*nodes++
	if k == len(signs) {
		if target.holds(signs) {
			return false
		}
		for _, c := range cods {
			if !c.holds(signs) {
				return false
			}
		}
		return true
	}
	signs[k] = core.Equal
	if exhaustiveSearch(signs, k+1, seenLess, cods, target, nodes) {
		return true
	}
	signs[k] = core.Less
	if exhaustiveSearch(signs, k+1, true, cods, target, nodes) {
		return true
	}
	if seenLess {
		signs[k] = core.Greater
		if exhaustiveSearch(signs, k+1, true, cods, target, nodes) {
			return true
		}
	}
	signs[k] = core.Equal
	return false
}

func oracleDecide(m []core.OD, od core.OD) oracleVerdict {
	var v oracleVerdict
	var working []core.OD
	inWorking := make([]bool, len(m))
	closure := fd.Closure(od.LHS.Set(), fd.FromODs(m))
	splitRefuted := !od.RHS.Set().SubsetOf(closure)
	for {
		attrs := core.AttrsOf(working).Union(od.Attrs()).Sorted()
		widen := func(w *core.Pattern) bool {
			for i, c := range m {
				v.nodes++
				if !inWorking[i] && !w.HoldsOD(c) {
					inWorking[i] = true
					working = append(working, c)
					return true
				}
			}
			return false
		}
		pat := core.MustPattern(attrs)
		if splitRefuted {
			for _, a := range attrs {
				if !closure.Contains(a) {
					if err := pat.SetSign(a, core.Less); err != nil {
						panic(err)
					}
				}
			}
		} else {
			compile := func(o core.OD) oracleOD {
				idx := func(l core.List) []int {
					out := make([]int, len(l))
					for i, a := range l {
						out[i] = attrs.Index(a)
					}
					return out
				}
				return oracleOD{lhs: idx(o.LHS), rhs: idx(o.RHS)}
			}
			cods := make([]oracleOD, len(working))
			for i, c := range working {
				cods[i] = compile(c)
			}
			if !exhaustiveSearch(pat.Signs(), 0, false, cods, compile(od), &v.nodes) {
				v.implied = true
				return v
			}
		}
		if !widen(pat) {
			v.witness = pat
			return v
		}
	}
}

// randomInstance draws an OD set (≤ 6 ODs) and a question over ≤ 8
// attributes.
func randomInstance(rng *rand.Rand) (m []core.OD, q core.OD) {
	universe := make(core.List, 3+rng.Intn(6))
	for i := range universe {
		universe[i] = core.Attribute(fmt.Sprintf("a%d", i))
	}
	for j := rng.Intn(7); j > 0; j-- {
		m = append(m, core.RandOD(rng, universe, 3))
	}
	return m, core.NewOD(core.RandList(rng, universe, 4), core.RandList(rng, universe, 4))
}

// checkAgainstOracle is the property shared by the randomized differential
// test and the fuzz target: sequential, 4-worker and 16-worker decides agree
// with the exhaustive oracle; every refutation's compact witness satisfies
// all of M under the Equal extension and falsifies the question; the
// sequential kernel returns the oracle's own first counterexample and visits
// no more nodes than it.
func checkAgainstOracle(t *testing.T, m []core.OD, q core.OD) {
	t.Helper()
	want := oracleDecide(m, q)
	for _, workers := range []int{1, 4, 16} {
		var c Counters
		v, err := New(m, WithWorkers(workers), WithCounters(&c)).DecideCtx(t.Context(), q)
		if err != nil {
			t.Fatalf("workers=%d: %s under %s: %v", workers, q, core.ODsString(m), err)
		}
		if v.Implied != want.implied {
			t.Fatalf("workers=%d: %s under %s: kernel says implied=%v, exhaustive oracle %v",
				workers, q, core.ODsString(m), v.Implied, want.implied)
		}
		if v.Implied {
			if v.Witness != nil {
				t.Fatalf("workers=%d: implied verdict carries witness %v", workers, v.Witness)
			}
		} else {
			checkWitness(t, m, q, v.Witness)
		}
		if workers != 1 {
			continue
		}
		if !v.Implied && (!v.Witness.Universe().Equal(want.witness.Universe()) ||
			v.Witness.String() != want.witness.String()) {
			t.Fatalf("%s under %s: sequential witness %v, oracle's first counterexample %v",
				q, core.ODsString(m), v.Witness, want.witness)
		}
		if got := c.Nodes.Load(); got > want.nodes {
			t.Fatalf("%s under %s: propagating search visited %d nodes, exhaustive %d",
				q, core.ODsString(m), got, want.nodes)
		}
	}
}

// TestDecideAgainstExhaustiveRandomized is the differential harness of
// ROADMAP aim 3 at the prover layer.
func TestDecideAgainstExhaustiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	for i := 0; i < 1500; i++ {
		m, q := randomInstance(rng)
		checkAgainstOracle(t, m, q)
	}
}

// TestFanOutAgainstExhaustive repeats the differential on instances the
// random draw above never produces: every OD under lateContext, so no prefix
// decides anything, the sequential probe spends its node budget, and the
// 4- and 16-worker provers really do restart across prefix blocks.
func TestFanOutAgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	universe := core.L("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")
	fannedOut := 0
	for i := 0; i < 60; i++ {
		perm := func() core.List {
			l := universe.Clone()
			rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
			return l
		}
		// Each OD splits a permutation of the universe between its sides, so
		// asking one of them back (implied: the tree must be exhausted) or
		// asking two orders of the universe (never split-refuted) searches
		// all nine attributes.
		var m []core.OD
		for j := 1 + rng.Intn(6); j > 0; j-- {
			l, cut := perm(), 1+rng.Intn(7)
			m = append(m, core.NewOD(underContext(l[:cut]), underContext(l[cut:])))
		}
		q := m[rng.Intn(len(m))]
		if i%2 == 0 {
			q = core.NewOD(underContext(perm()), underContext(perm()))
		}
		checkAgainstOracle(t, m, q)
		if oracleDecide(m, q).nodes > 2*fanOutAfterNodes {
			fannedOut++
		}
	}
	if fannedOut < 20 {
		t.Errorf("only %d of 60 instances were large enough to fan out; the generator no longer exercises the pool", fannedOut)
	}
}

// Fuzz encoding: one byte per decision. Attributes are a0..a7; a list is a
// length byte (mod 8) then that many attribute bytes (mod 8); an instance is
// an OD count (mod 7), the ODs, then the question. Missing bytes read as 0.

func encodeInstance(m []core.OD, q core.OD) []byte {
	var out []byte
	list := func(l core.List) {
		out = append(out, byte(len(l)))
		for _, a := range l {
			out = append(out, a[1]-'0')
		}
	}
	out = append(out, byte(len(m)))
	for _, od := range append(append([]core.OD{}, m...), q) {
		list(od.LHS)
		list(od.RHS)
	}
	return out
}

func decodeInstance(data []byte) (m []core.OD, q core.OD) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	list := func() core.List {
		l := make(core.List, next()%8)
		for i := range l {
			l[i] = core.Attribute(fmt.Sprintf("a%d", next()%8))
		}
		return l
	}
	od := func() core.OD { return core.NewOD(list(), list()) }
	for n := next() % 7; n > 0; n-- {
		m = append(m, od())
	}
	return m, od()
}

func parseODs(t testing.TB, text string) []core.OD {
	t.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil {
		t.Fatal(err)
	}
	return ods
}

// FuzzDecideAgainstExhaustive is checkAgainstOracle under the native fuzzer.
// The seed corpus is the paper's examples (Example 1's Theorem 8 rewrite,
// the interceding-attribute failure of Section 2.3, Theorem 15's split and
// swap halves, the Chain axiom instance and its Figure 3 counterexample) and
// the benchmark's shapes (an implied FD-form span across chains, a refuted
// reversal) over the fuzz alphabet.
func FuzzDecideAgainstExhaustive(f *testing.F) {
	for _, seed := range []struct{ m, q string }{
		{"[a0] -> [a1]", "[a2, a1, a0] -> [a2, a0]"},                              // Example 1, one direction
		{"[a3] -> [a1]", "[a0, a1, a2, a3] -> [a0, a2, a3]"},                      // C intervenes
		{"[a3] -> [a1, a2]", "[a0, a3] -> [a0, a1, a2, a3]"},                      // Section 2.3
		{"[a0] -> [a0, a1]", "[a0] -> [a1]"},                                      // FD half alone: swap remains
		{"[a0] -> [a0, a1]; [a0, a1] -> [a1, a0]", "[a0] -> [a1]"},                // Theorem 15, both halves
		{"[a0] ~ [a1]; [a1] ~ [a2]; [a0, a1] ~ [a1, a2]", "[a0, a2] -> [a2, a0]"}, // Chain
		{"[a0] ~ [a1]; [a1] ~ [a2]", "[a0, a2] -> [a2, a0]"},                      // Figure 3
		{"[] -> [a0]; [a0] -> [a1]", "[a2, a0] -> [a0, a2]"},                      // constants commute
		{"[a0] -> [a1]; [a1] -> [a2]; [a3] -> [a4]; [a4] -> [a5]; [a6] -> [a7]",
			"[a0, a3, a6] -> [a0, a3, a6, a2, a5, a7]"}, // bench: implied FD form across three chains
		{"[a0] -> [a1]; [a1] -> [a2]; [a3] -> [a4]; [a4] -> [a5]; [a6] -> [a7]",
			"[a2, a5, a7] -> [a0, a3, a6]"}, // bench: refuted reversal
	} {
		m := parseODs(f, seed.m)
		if len(m) > 6 {
			f.Fatalf("seed %q exceeds the encoding's 6 ODs", seed.m)
		}
		f.Add(encodeInstance(m, parseODs(f, seed.q)[0]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, q := decodeInstance(data)
		checkAgainstOracle(t, m, q)
	})
}

// TestFuzzEncodingRoundTrips keeps the seed corpus honest: what the fuzz
// target decodes is what the seeds spelled.
func TestFuzzEncodingRoundTrips(t *testing.T) {
	m := parseODs(t, "[a0] -> [a1]; [a3, a1] -> [a2]; [] -> [a7]")
	q := core.NewOD(core.L("a2", "a1", "a0"), core.L("a2"))
	gotM, gotQ := decodeInstance(encodeInstance(m, q))
	if core.ODsString(gotM) != core.ODsString(m) || !gotQ.Equal(q) {
		t.Fatalf("round trip: got %s ⊨? %s, want %s ⊨? %s", core.ODsString(gotM), gotQ, core.ODsString(m), q)
	}
}
