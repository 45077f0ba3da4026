package discover

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// checkTable asserts the table's standing invariants over the sign vectors
// its planes decode to, not over where they sit, which a repack moves: every
// plane spans the alive words, no padding slot is alive, no sign vector is
// alive twice, and the living vectors are closed under row swap (< ↔ >). It
// returns the living vectors.
func checkTable(t *testing.T, tbl *modelTable) map[string]bool {
	t.Helper()
	for a := range tbl.lt {
		if len(tbl.lt[a]) != len(tbl.alive) || len(tbl.eq[a]) != len(tbl.alive) {
			t.Fatalf("attribute %d: planes of %d and %d words, alive of %d", a, len(tbl.lt[a]), len(tbl.eq[a]), len(tbl.alive))
		}
	}
	alive := func(s int) bool { return tbl.alive[s>>6]>>(s&63)&1 != 0 }
	for s := tbl.slots; s < 64*len(tbl.alive); s++ {
		if alive(s) {
			t.Fatalf("padding slot %d is alive past the %d slots", s, tbl.slots)
		}
	}
	models := make(map[string]bool)
	for s := range tbl.slots {
		if !alive(s) {
			continue
		}
		v := make([]byte, len(tbl.lt))
		for a := range v {
			lt, eq := tbl.lt[a][s>>6]>>(s&63)&1 != 0, tbl.eq[a][s>>6]>>(s&63)&1 != 0
			switch {
			case lt && eq:
				t.Fatalf("slot %d is both below and tied on attribute %d", s, a)
			case lt:
				v[a] = '<'
			case eq:
				v[a] = '='
			default:
				v[a] = '>'
			}
		}
		if models[string(v)] {
			t.Fatalf("sign vector %s is alive twice", v)
		}
		models[string(v)] = true
	}
	for v := range models {
		swapped := []byte(v)
		for a, c := range swapped {
			swapped[a] = map[byte]byte{'<': '>', '=': '=', '>': '<'}[c]
		}
		if !models[string(swapped)] {
			t.Fatalf("sign vector %s is alive, its row swap %s is not", v, swapped)
		}
	}
	return models
}

// tableOf accepts the ODs into a fresh table over the schema, checking the
// invariants after every accept.
func tableOf(t *testing.T, attrs core.List, m []core.OD) *modelTable {
	t.Helper()
	tbl := newModelTable(attrs)
	checkTable(t, tbl)
	for _, od := range m {
		tbl.accept(od)
		checkTable(t, tbl)
	}
	return tbl
}

// checkTableAgainstProver holds every question's table verdict to the
// prover's, over the same accepted set.
func checkTableAgainstProver(t *testing.T, tbl *modelTable, m, questions []core.OD) {
	t.Helper()
	p := prover.New(m, prover.WithWorkers(1))
	for _, q := range questions {
		want, err := p.Implies(q)
		if err != nil {
			t.Fatalf("%s under %s: %v", q, core.ODsString(m), err)
		}
		if got := tbl.implies(q); got != want {
			t.Fatalf("%s under %s: table says implied=%v, prover %v", q, core.ODsString(m), got, want)
		}
	}
}

// TestModelTableExhaustive3: the table is the prover on a universe small
// enough to ask everything. Over three attributes, every OD whose sides are
// lists of at most two of them — empty sides and repeated attributes included
// — alone and paired with every other, against every such OD as the question.
func TestModelTableExhaustive3(t *testing.T) {
	attrs := core.L("a", "b", "c")
	lists := []core.List{nil}
	for _, a := range attrs {
		lists = append(lists, core.List{a})
		for _, b := range attrs {
			lists = append(lists, core.List{a, b})
		}
	}
	var ods []core.OD
	for _, x := range lists {
		for _, y := range lists {
			ods = append(ods, core.NewOD(x, y))
		}
	}
	for i, first := range ods {
		checkTableAgainstProver(t, tableOf(t, attrs, ods[i:i+1]), ods[i:i+1], ods)
		for _, second := range ods[i+1:] {
			m := []core.OD{first, second}
			tbl := tableOf(t, attrs, m)
			if other := tableOf(t, attrs, []core.OD{second, first}); !maps.Equal(checkTable(t, tbl), checkTable(t, other)) {
				t.Fatalf("accepting %s in either order leaves different models", core.ODsString(m))
			}
			checkTableAgainstProver(t, tbl, m, ods)
		}
	}
}

// Fuzz encoding, the shape of prover's FuzzDecideAgainstExhaustive: one byte
// per decision. Attributes are a0..a5; a list is a length byte (mod 4) then
// that many attribute bytes (mod 6); an instance is an OD count (mod 7), the
// ODs, then the question. Missing bytes read as 0.
var fuzzAttrs = core.L("a0", "a1", "a2", "a3", "a4", "a5")

func encodeInstance(m []core.OD, q core.OD) []byte {
	out := []byte{byte(len(m))}
	for _, od := range append(slices.Clone(m), q) {
		for _, l := range []core.List{od.LHS, od.RHS} {
			out = append(out, byte(len(l)))
			for _, a := range l {
				out = append(out, byte(fuzzAttrs.Index(a)))
			}
		}
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
		l := make(core.List, next()%4)
		for i := range l {
			l[i] = fuzzAttrs[next()%6]
		}
		return l
	}
	od := func() core.OD { return core.NewOD(list(), list()) }
	for n := next() % 7; n > 0; n-- {
		m = append(m, od())
	}
	return m, od()
}

// FuzzModelTableAgainstProver is the same property under the native fuzzer,
// on up to six ODs over six attributes. The seed corpus is the paper shapes
// prover's oracle tests start from: a chain and its reversal, constants,
// Theorem 15's split and swap halves, Figure 3's counterexample to Chain.
func FuzzModelTableAgainstProver(f *testing.F) {
	for _, seed := range []struct{ m, q string }{
		{"[a0] -> [a1]; [a1] -> [a2]; [a3] -> [a4]", "[a0, a3] -> [a0, a2, a4]"}, // implied across chains
		{"[a0] -> [a1]; [a1] -> [a2]", "[a2] -> [a0]"},                           // refuted reversal
		{"[] -> [a0]", "[a1] -> [a0]"},                                           // a constant is ordered by anything
		{"[] -> [a0]; [a0] -> [a1]", "[a2, a0] -> [a0, a2]"},                     // constants commute
		{"[a0] -> [a0, a1]", "[a0] -> [a1]"},                                     // FD half alone: swap remains
		{"[a0] -> [a0, a1]; [a0, a1] -> [a1, a0]", "[a0] -> [a1]"},               // Theorem 15, both halves
		{"[a0] ~ [a1]; [a1] ~ [a2]", "[a0, a2] -> [a2, a0]"},                     // Figure 3
	} {
		m, err := core.ParseStatements(seed.m)
		if err != nil {
			f.Fatal(err)
		}
		q, err := core.ParseStatements(seed.q)
		if err != nil {
			f.Fatal(err)
		}
		data := encodeInstance(m, q[0])
		if gotM, gotQ := decodeInstance(data); core.ODsString(gotM) != core.ODsString(m) || !gotQ.Equal(q[0]) {
			f.Fatalf("seed %q ⊨? %q does not survive the encoding: %s ⊨? %s", seed.m, seed.q, core.ODsString(gotM), gotQ)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, q := decodeInstance(data)
		checkTableAgainstProver(t, tableOf(t, fuzzAttrs, m), m, []core.OD{q})
	})
}

// TestModelTableWidths: the plane arithmetic holds at every width Pipeline
// builds a table for, one word boundary or many — a chain over the whole
// schema implies its two ends, and not their reversal. The chain leaves 2n+1
// sign vectors alive (all ties, or a run of strict signs in one direction
// followed by ties), so from six attributes on the table has re-packed them
// into one word of planes of its own, and the width's shared planes are as
// built.
func TestModelTableWidths(t *testing.T) {
	for n := 0; n <= maxTableAttrs; n++ {
		attrs := make(core.List, n)
		for i := range attrs {
			attrs[i] = core.Attribute(fmt.Sprintf("c%d", i))
		}
		var m []core.OD
		for i := 1; i < n; i++ {
			m = append(m, core.NewOD(attrs[i-1:i], attrs[i:i+1]))
		}
		tbl := tableOf(t, attrs, m)
		if living := len(checkTable(t, tbl)); living != 2*n+1 || n >= 6 && (len(tbl.alive) != 1 || tbl.slots == planesOf(n).patterns) {
			t.Fatalf("%d attributes: the chain leaves %d patterns in %d words of %d slots, want %d in 1 re-packed word", n, living, len(tbl.alive), tbl.slots, 2*n+1)
		}
		if shared, built := planesOf(n), buildPlanes(n); !slices.EqualFunc(shared.lt, built.lt, slices.Equal) || !slices.EqualFunc(shared.eq, built.eq, slices.Equal) {
			t.Fatalf("%d attributes: the shared sign planes were written", n)
		}
		if n < 2 {
			continue
		}
		ends := core.NewOD(attrs[:1], attrs[n-1:])
		checkTableAgainstProver(t, tbl, m, []core.OD{ends, ends.Reverse()})
		if !tbl.implies(ends) || tbl.implies(ends.Reverse()) {
			t.Fatalf("%d attributes: chain implies %s = %v, %s = %v", n, ends, tbl.implies(ends), ends.Reverse(), tbl.implies(ends.Reverse()))
		}
	}
}
