package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternBasics(t *testing.T) {
	if _, err := NewPattern(L("A", "A")); err == nil {
		t.Error("duplicate universe should fail")
	}
	p := MustPattern(L("A", "B", "C"))
	if err := p.SetSign("A", Less); err != nil {
		t.Fatal(err)
	}
	if err := p.SetSign("C", Greater); err != nil {
		t.Fatal(err)
	}
	if err := p.SetSign("Z", Less); err == nil {
		t.Error("unknown attribute should fail")
	}
	if p.Sign("A") != Less || p.Sign("B") != Equal || p.Sign("C") != Greater {
		t.Error("Sign readback wrong")
	}
	if p.Sign("Z") != Equal {
		t.Error("attributes outside the universe read as Equal")
	}
	if got := p.String(); got != "A< B= C>" {
		t.Errorf("String = %q", got)
	}
	if !p.Universe().Equal(L("A", "B", "C")) {
		t.Error("Universe wrong")
	}
}

// TestPatternIndexBothSides drives attribute resolution on both sides of
// patternScanMax: small universes scan, large ones carry an index map, and
// the two must be indistinguishable — duplicates rejected, absent attributes
// tied, SetSign refusing strangers.
func TestPatternIndexBothSides(t *testing.T) {
	for _, n := range []int{1, patternScanMax, patternScanMax + 1, 3 * patternScanMax} {
		universe := make(List, n)
		for i := range universe {
			universe[i] = Attribute(fmt.Sprintf("a%03d", i))
		}
		p := MustPattern(universe)
		if (p.pos != nil) != (n > patternScanMax) {
			t.Errorf("n=%d: index map present = %v", n, p.pos != nil)
		}
		last := universe[n-1]
		if err := p.SetSign(last, Greater); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.Sign(last) != Greater || p.Sign("stranger") != Equal {
			t.Errorf("n=%d: Sign readback wrong", n)
		}
		if err := p.SetSign("stranger", Less); err == nil {
			t.Errorf("n=%d: SetSign accepted an attribute outside the universe", n)
		}
		if q := p.Clone(); q.Sign(last) != Greater || p.Neg().Sign(last) != Less {
			t.Errorf("n=%d: Clone/Neg lost the sign", n)
		}
		if _, err := NewPattern(append(universe.Clone(), last)); err == nil {
			t.Errorf("n=%d: duplicate universe accepted", n+1)
		}
	}
}

func TestPatternCompare(t *testing.T) {
	p := MustPattern(L("A", "B", "C"))
	p.SetSign("B", Greater)
	p.SetSign("C", Less)
	tests := []struct {
		x    List
		want Sign
	}{
		{nil, Equal},
		{L("A"), Equal},
		{L("A", "B"), Greater},
		{L("A", "C", "B"), Less},
		{L("C", "B"), Less},
	}
	for _, tc := range tests {
		if got := p.Compare(tc.x); got != tc.want {
			t.Errorf("Compare(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestPatternHoldsOD(t *testing.T) {
	p := MustPattern(L("A", "B", "C"))
	p.SetSign("A", Less)
	p.SetSign("B", Greater)
	tests := []struct {
		od   OD
		want bool
	}{
		{OD{L("A"), L("A")}, true},
		{OD{L("A"), L("B")}, false}, // swap
		{OD{L("C"), L("A")}, false}, // split: C ties, A differs
		{OD{L("C"), L("C")}, true},
		{OD{L("A"), L("C")}, true}, // ascending then tie is fine
		{OD{L("A", "B"), L("A", "C")}, true},
		{OD{L("B"), L("B", "A")}, true},
		{OD{nil, L("A")}, false}, // constant violated
		{OD{nil, nil}, true},
	}
	for _, tc := range tests {
		if got := p.HoldsOD(tc.od); got != tc.want {
			t.Errorf("HoldsOD(%s) = %v, want %v", tc.od, got, tc.want)
		}
	}
	if !p.HoldsAll([]OD{{L("A"), L("A")}, {L("C"), L("C")}}) {
		t.Error("HoldsAll should hold")
	}
	if p.HoldsAll([]OD{{L("A"), L("A")}, {L("A"), L("B")}}) {
		t.Error("HoldsAll should fail")
	}
}

// TestPatternMatchesRelation checks that Pattern.HoldsOD agrees with the
// relation realization: the two-row relation satisfies the OD iff the
// pattern says so.
func TestPatternMatchesRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	universe := L("A", "B", "C", "D")
	f := func(seed int64) bool {
		rng.Seed(seed)
		p := RandPattern(rng, universe)
		od := RandOD(rng, universe, 3)
		r := p.Relation()
		ok, _, err := r.Satisfies(od)
		if err != nil {
			return false
		}
		return ok == p.HoldsOD(od)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPatternNegInvariance: a pattern and its negation satisfy the same ODs
// (exchanging the two rows cannot change satisfaction of Definition 4).
func TestPatternNegInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	universe := L("A", "B", "C")
	f := func(seed int64) bool {
		rng.Seed(seed)
		p := RandPattern(rng, universe)
		od := RandOD(rng, universe, 3)
		return p.HoldsOD(od) == p.Neg().HoldsOD(od)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPatternOf(t *testing.T) {
	r := mustRel(t, L("A", "B", "C"), []int64{1, 5, 7}, []int64{2, 5, 3})
	p, err := PatternOf(r, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sign("A") != Less || p.Sign("B") != Equal || p.Sign("C") != Greater {
		t.Errorf("PatternOf = %v", p)
	}
	// Round trip through Relation preserves the pattern.
	p2, err := PatternOf(p.Relation(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Universe() {
		if p.Sign(a) != p2.Sign(a) {
			t.Errorf("round trip changed sign of %s", a)
		}
	}
	c := p.Clone()
	c.SetSign("A", Greater)
	if p.Sign("A") != Less {
		t.Error("Clone aliases")
	}
}

// TestTwoRowLocality is the keystone property behind the prover: a relation
// satisfies an OD iff every two-row subrelation (pattern) does.
func TestTwoRowLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	universe := L("A", "B", "C")
	for i := 0; i < 200; i++ {
		r := RandRelation(rng, universe, 6, 2)
		od := RandOD(rng, universe, 2)
		whole, _, err := r.Satisfies(od)
		if err != nil {
			t.Fatal(err)
		}
		pairs := true
		for s := 0; s < r.Len() && pairs; s++ {
			for u := s + 1; u < r.Len() && pairs; u++ {
				p, err := PatternOf(r, s, u)
				if err != nil {
					t.Fatal(err)
				}
				if !p.HoldsOD(od) {
					pairs = false
				}
			}
		}
		if whole != pairs {
			t.Fatalf("two-row locality violated for %s on\n%s", od, r)
		}
	}
}
