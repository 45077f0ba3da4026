package catalog

import (
	"strings"
	"testing"

	"odlib/internal/core"
)

// TestCanonViewAllocatesNothing pins the tier chain's first step: a
// duplicate-free question is its own canonical form, so canonicalizing it
// and testing it for triviality allocate nothing and hand back the caller's
// own slices. A question with repeats gets canon's fresh normal form.
func TestCanonViewAllocatesNothing(t *testing.T) {
	od := core.NewOD(core.L("c0_0", "c4_1", "c9_2"), core.L("c0_0", "c4_1", "c9_2", "c4_4", "c9_5", "c0_3"))
	if n := testing.AllocsPerRun(100, func() {
		if q := canonView(od); q.Trivial() {
			t.Fatal("FD-form question read as trivial")
		}
	}); n != 0 {
		t.Errorf("canonicalizing a duplicate-free question: %.0f allocations, want 0", n)
	}
	if q := canonView(od); &q.LHS[0] != &od.LHS[0] || &q.RHS[0] != &od.RHS[0] {
		t.Error("canonView copied a duplicate-free question")
	}
	rep := core.NewOD(core.L("a", "b", "a"), core.L("b", "b"))
	if q := canonView(rep); !q.Equal(canon(rep)) || &q.LHS[0] == &rep.LHS[0] {
		t.Errorf("canonView(%s) = %s, want canon's fresh %s", rep, q, canon(rep))
	}
}

// FuzzStatementRoundTrip holds the statement parser and the in-place list
// checks to their definitions on whatever statement the fuzzer writes:
// every OD core.ParseStatement expands it to prints (String) to text that
// parses back to exactly that OD, and on each of them — repeats and long
// sides included — Trivial, HasDuplicates and canonView agree with the
// Normalize-based definitions, and ownOD copies without aliasing.
func FuzzStatementRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"[A, B] -> [C]",
		"A, B -> C",
		"[] -> [A]",
		"[] -> []",
		"[a, b, a] -> [b, a, b, c]",
		"[year, month] <-> [year, quarter, month]",
		"[x, y] ~ [y, x, x]",
		"[a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12, a13, a14, a15, a16] -> [a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12, a13, a14, a15, a00]",
		"[a, 1b] -> [c]",
		"[a] -> [b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		ods, err := core.ParseStatement(stmt)
		if err != nil {
			return
		}
		for _, od := range ods {
			text := od.String()
			back, err := core.ParseStatement(text)
			if err != nil || len(back) != 1 || !back[0].Equal(od) {
				t.Fatalf("%q: %s prints as %q, which parses to %v (%v)", stmt, od, text, back, err)
			}
			if strings.Contains(text, "<->") || strings.Contains(text, "~") {
				t.Fatalf("%q: plain OD printed as %q", stmt, text)
			}

			if want := od.LHS.Normalize().HasPrefix(od.RHS.Normalize()); od.Trivial() != want {
				t.Fatalf("%s: Trivial = %v, the normal forms say %v", od, od.Trivial(), want)
			}
			for _, x := range []core.List{od.LHS, od.RHS} {
				if want := len(x.Normalize()) != len(x); x.HasDuplicates() != want {
					t.Fatalf("%s: HasDuplicates = %v, want %v", x, x.HasDuplicates(), want)
				}
			}
			want := canon(od)
			view := canonView(od)
			if !view.Equal(want) || view.Trivial() != want.Trivial() || view.Key() != want.Key() {
				t.Fatalf("%s: canonView = %s, canon = %s", od, view, want)
			}
			own := ownOD(view)
			if !own.Equal(view) {
				t.Fatalf("%s: ownOD = %s", view, own)
			}
			if len(own.LHS) > 0 {
				own.LHS[0] = "changed"
				if view.LHS[0] == "changed" {
					t.Fatalf("%s: ownOD shares the left side", view)
				}
			}
			if len(own.RHS) > 0 {
				own.RHS[0] = "changed"
				if view.RHS[0] == "changed" {
					t.Fatalf("%s: ownOD shares the right side", view)
				}
			}
		}
	})
}
