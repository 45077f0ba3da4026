package core

import (
	"fmt"
	"strings"
)

// Sign is the comparison outcome between the two rows of a two-row relation
// on a single attribute.
type Sign int8

// The three comparison signs.
const (
	Less    Sign = -1
	Equal   Sign = 0
	Greater Sign = 1
)

// String renders the sign as <, = or >.
func (s Sign) String() string {
	switch {
	case s < 0:
		return "<"
	case s > 0:
		return ">"
	default:
		return "="
	}
}

// Pattern describes a two-row relation up to order isomorphism: one Sign per
// universe attribute, giving the comparison between row 1 and row 2 on that
// attribute.
//
// Order dependencies are constraints on pairs of tuples, so a relation
// satisfies an OD set exactly when each of its two-row subrelations does, and
// a two-row subrelation is fully described by its Pattern. Patterns are
// therefore the complete semantic search space for implication: M ⊨ φ iff no
// Pattern satisfies M while falsifying φ. internal/prover exploits this.
type Pattern struct {
	universe List
	pos      map[Attribute]int // nil up to patternScanMax attributes: index scans the universe
	signs    []Sign
}

// patternScanMax is the universe size up to which a pattern resolves
// attributes by scanning its universe instead of carrying an index map. The
// prover's counterexamples span at most its attribute guard (14 by default)
// and are retained by the thousand in verdict caches, where a map per
// pattern cost several times the pattern itself; a scan over this many
// short strings is as fast as hashing one.
const patternScanMax = 16

// NewPattern creates the all-Equal pattern over the given universe. The
// universe must not repeat attributes.
func NewPattern(universe List) (*Pattern, error) {
	p := &Pattern{universe: universe.Clone(), signs: make([]Sign, len(universe))}
	if len(universe) <= patternScanMax {
		for i, a := range universe {
			if universe[:i].Contains(a) {
				return nil, fmt.Errorf("core: pattern universe %v repeats an attribute", universe)
			}
		}
		return p, nil
	}
	p.pos = make(map[Attribute]int, len(universe))
	for i, a := range universe {
		if _, dup := p.pos[a]; dup {
			return nil, fmt.Errorf("core: pattern universe %v repeats an attribute", universe)
		}
		p.pos[a] = i
	}
	return p, nil
}

// index returns a's position in the universe, or -1.
func (p *Pattern) index(a Attribute) int {
	if p.pos == nil {
		return p.universe.Index(a)
	}
	if i, ok := p.pos[a]; ok {
		return i
	}
	return -1
}

// MustPattern is NewPattern that panics on error, for literals in tests.
func MustPattern(universe List) *Pattern {
	p, err := NewPattern(universe)
	if err != nil {
		panic(err)
	}
	return p
}

// Universe returns the pattern's attribute universe.
func (p *Pattern) Universe() List { return p.universe }

// Sign returns the sign recorded for attribute a. Attributes outside the
// universe read as Equal: a two-row relation extended with tied columns has
// the same OD behaviour.
func (p *Pattern) Sign(a Attribute) Sign {
	if i := p.index(a); i >= 0 {
		return p.signs[i]
	}
	return Equal
}

// SetSign records the sign for attribute a; it returns an error if a is not
// in the universe.
func (p *Pattern) SetSign(a Attribute, s Sign) error {
	i := p.index(a)
	if i < 0 {
		return fmt.Errorf("core: attribute %s not in pattern universe %v", a, p.universe)
	}
	p.signs[i] = s
	return nil
}

// Signs exposes the underlying sign slice, indexed like Universe. The prover
// mutates it in place during enumeration.
func (p *Pattern) Signs() []Sign { return p.signs }

// Compare lexicographically compares the two rows along list x: the first
// attribute with a non-Equal sign decides (Definition 1 specialized to two
// rows).
func (p *Pattern) Compare(x List) Sign {
	for _, a := range x {
		if s := p.Sign(a); s != Equal {
			return s
		}
	}
	return Equal
}

// HoldsOD reports whether the two-row relation satisfies X ↦ Y. The OD fails
// only by split (rows tie on X but not on projection of Y — here: Compare(Y)
// non-Equal while every Y attribute... the lexicographic comparison suffices
// because a tie on X makes both directions of Definition 4 apply) or by swap
// (strict X order opposite to strict Y order), per Theorem 15.
func (p *Pattern) HoldsOD(od OD) bool {
	cx := p.Compare(od.LHS)
	cy := p.Compare(od.RHS)
	if cx == Equal {
		return cy == Equal
	}
	return cy == Equal || cy == cx
}

// HoldsAll reports whether the two-row relation satisfies every OD in ods.
func (p *Pattern) HoldsAll(ods []OD) bool {
	for _, od := range ods {
		if !p.HoldsOD(od) {
			return false
		}
	}
	return true
}

// Neg returns the pattern with every sign inverted (the two rows exchanged).
// A pattern and its negation satisfy exactly the same ODs.
func (p *Pattern) Neg() *Pattern {
	out := MustPattern(p.universe)
	for i, s := range p.signs {
		out.signs[i] = -s
	}
	return out
}

// Clone returns an independent copy of p.
func (p *Pattern) Clone() *Pattern {
	out := MustPattern(p.universe)
	copy(out.signs, p.signs)
	return out
}

// Relation realizes the pattern as a two-row relation with integer values:
// row 1 holds 0 everywhere, row 2 holds the sign value per attribute.
func (p *Pattern) Relation() *Relation {
	r := MustRelation(p.universe)
	row1 := make([]Value, len(p.universe))
	row2 := make([]Value, len(p.universe))
	// Realize so that "row 1 (index 0) compared to row 2 (index 1)" yields
	// exactly the recorded signs: sign Less means row1 < row2.
	for i, s := range p.signs {
		row1[i] = Int(0)
		row2[i] = Int(0)
		switch s {
		case Less:
			row2[i] = Int(1)
		case Greater:
			row2[i] = Int(-1)
		}
	}
	if err := r.AddRow(row1...); err != nil {
		panic(err)
	}
	if err := r.AddRow(row2...); err != nil {
		panic(err)
	}
	return r
}

// PatternOf extracts the comparison pattern between rows i and j of r over
// r's schema.
func PatternOf(r *Relation, i, j int) (*Pattern, error) {
	p, err := NewPattern(r.Attrs())
	if err != nil {
		return nil, err
	}
	for k, a := range r.Attrs() {
		c, err := r.CompareOn(i, j, List{a})
		if err != nil {
			return nil, err
		}
		switch {
		case c < 0:
			p.signs[k] = Less
		case c > 0:
			p.signs[k] = Greater
		}
	}
	return p, nil
}

// String renders the pattern as "A< B= C>".
func (p *Pattern) String() string {
	var b strings.Builder
	for i, a := range p.universe {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(a))
		b.WriteString(p.signs[i].String())
	}
	return b.String()
}
