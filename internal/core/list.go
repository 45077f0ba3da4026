package core

import (
	"sort"
	"strings"
)

// Attribute is a named column of a relation schema.
type Attribute string

// List is an ordered list of attributes, the fundamental notion of OD theory.
// The zero value is the empty list, written [].
type List []Attribute

// L is a convenience constructor: L("A", "B") is the list [A, B].
func L(attrs ...string) List {
	l := make(List, len(attrs))
	for i, a := range attrs {
		l[i] = Attribute(a)
	}
	return l
}

// Concat returns the concatenation of x with the given lists. x is not
// modified.
func (x List) Concat(ys ...List) List {
	n := len(x)
	for _, y := range ys {
		n += len(y)
	}
	out := make(List, 0, n)
	out = append(out, x...)
	for _, y := range ys {
		out = append(out, y...)
	}
	return out
}

// Head returns the first attribute of x. It panics on the empty list; callers
// must check Empty first.
func (x List) Head() Attribute { return x[0] }

// Tail returns the list with the first element removed. Tail of the empty
// list is the empty list.
func (x List) Tail() List {
	if len(x) == 0 {
		return nil
	}
	return x[1:]
}

// Empty reports whether x is the empty list [].
func (x List) Empty() bool { return len(x) == 0 }

// Prefix returns the first n attributes of x (all of x if n exceeds its
// length; the empty list if n <= 0).
func (x List) Prefix(n int) List {
	if n <= 0 {
		return nil
	}
	if n > len(x) {
		n = len(x)
	}
	return x[:n]
}

// Suffix returns the attributes of x from position n on.
func (x List) Suffix(n int) List {
	if n <= 0 {
		return x
	}
	if n >= len(x) {
		return nil
	}
	return x[n:]
}

// Contains reports whether attribute a occurs anywhere in x.
func (x List) Contains(a Attribute) bool { return x.Index(a) >= 0 }

// Index returns the position of the first occurrence of a in x, or -1.
func (x List) Index(a Attribute) int {
	for i, b := range x {
		if a == b {
			return i
		}
	}
	return -1
}

// Equal reports whether x and y are identical lists (same attributes in the
// same order).
func (x List) Equal(y List) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of x.
func (x List) HasPrefix(p List) bool {
	return len(p) <= len(x) && x.Prefix(len(p)).Equal(p)
}

// Clone returns an independent copy of x.
func (x List) Clone() List {
	if x == nil {
		return nil
	}
	out := make(List, len(x))
	copy(out, x)
	return out
}

// Normalize returns the duplicate-free normal form of x: every attribute
// keeps only its first occurrence. By the Normalization axiom (OD3), a list
// is order-equivalent to its normal form.
func (x List) Normalize() List {
	seen := make(map[Attribute]bool, len(x))
	out := make(List, 0, len(x))
	for _, a := range x {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// smallList is the length up to which HasDuplicates and OD.Trivial compare
// attributes pairwise instead of building a set: at most 120 string compares,
// and no allocation. Every question the prover's attribute guard admits is
// this short on each side.
const smallList = 16

// firstAt reports whether x[i] is the first occurrence of its attribute.
func (x List) firstAt(i int) bool { return !x[:i].Contains(x[i]) }

// HasDuplicates reports whether any attribute occurs more than once in x.
func (x List) HasDuplicates() bool {
	if len(x) <= smallList {
		for i := 1; i < len(x); i++ {
			if !x.firstAt(i) {
				return true
			}
		}
		return false
	}
	seen := make(map[Attribute]bool, len(x))
	for _, a := range x {
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}

// Set returns the set of attributes occurring in x.
func (x List) Set() AttrSet {
	s := make(AttrSet, len(x))
	for _, a := range x {
		s[a] = struct{}{}
	}
	return s
}

// SetEqual reports whether x and y contain the same set of attributes,
// ignoring order and multiplicity.
func (x List) SetEqual(y List) bool { return x.Set().Equal(y.Set()) }

// Minus returns the attributes of x that do not occur in y, preserving x's
// order (first occurrences only).
func (x List) Minus(y List) List {
	ys := y.Set()
	out := make(List, 0, len(x))
	seen := make(map[Attribute]bool, len(x))
	for _, a := range x {
		if !ys.Contains(a) && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Key returns a canonical string usable as a map key. It is the same as
// String: two lists share a key exactly when they are Equal.
func (x List) Key() string { return x.String() }

// Hash returns a 64-bit FNV-1a hash of the list. Lists that are Equal hash
// identically; the attribute count is folded in first so that [] and [A]
// collide no more than unequal non-empty lists do. Hash pairs with Equal the
// way hash() pairs with operator== on Hyrise's OrderDependency: hash buckets
// narrow the candidates, Equal decides.
func (x List) Hash() uint64 {
	h := fnvOffset
	h = fnvMix(h, uint64(len(x)))
	for _, a := range x {
		for i := 0; i < len(a); i++ {
			h = (h ^ uint64(a[i])) * fnvPrime
		}
		h = fnvMix(h, fnvSep)
	}
	return h
}

// FNV-1a constants, plus a separator word hashed between attributes so that
// ["AB"] and ["A", "B"] differ.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
	fnvSep    uint64 = 0x1f
)

// fnvMix folds a 64-bit word into an FNV-1a state byte by byte.
func fnvMix(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

// HashString returns the 64-bit FNV-1a hash of s, built on the same
// constants as the List and OD hashes; shared so callers hashing canonical
// keys (the catalog's memo shards) stay on one hashing scheme.
func HashString(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// String renders x in the paper's bracket notation, e.g. "[A, B, C]".
func (x List) String() string {
	var b strings.Builder
	b.Grow(x.renderedLen())
	x.render(&b)
	return b.String()
}

// render writes String's rendering of x to b.
func (x List) render(b *strings.Builder) {
	b.WriteByte('[')
	for i, a := range x {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(a))
	}
	b.WriteByte(']')
}

// renderedLen is the length of String's rendering of x, so that a rendering
// is built in one allocation.
func (x List) renderedLen() int {
	n := 2 + 2*max(len(x)-1, 0)
	for _, a := range x {
		n += len(a)
	}
	return n
}

// Permutations returns all permutations of x. It is intended for small lists
// (tests and exhaustive constructions); the result has len(x)! entries.
func (x List) Permutations() []List {
	if len(x) == 0 {
		return []List{nil}
	}
	var out []List
	var rec func(cur List, rest List)
	rec = func(cur List, rest List) {
		if len(rest) == 0 {
			out = append(out, cur.Clone())
			return
		}
		for i := range rest {
			next := make(List, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(make(List, 0, len(x)), x)
	return out
}

// AttrSet is a set of attributes. Sets arise in OD theory as derived views of
// lists: the FD corresponding to an OD (Theorem 13) relates set(X) to set(Y).
type AttrSet map[Attribute]struct{}

// NewAttrSet builds a set from the given attributes.
func NewAttrSet(attrs ...Attribute) AttrSet {
	s := make(AttrSet, len(attrs))
	for _, a := range attrs {
		s[a] = struct{}{}
	}
	return s
}

// Add inserts a into the set.
func (s AttrSet) Add(a Attribute) { s[a] = struct{}{} }

// AddAll inserts every attribute of the given lists into the set.
func (s AttrSet) AddAll(lists ...List) {
	for _, l := range lists {
		for _, a := range l {
			s[a] = struct{}{}
		}
	}
}

// Contains reports membership of a in s.
func (s AttrSet) Contains(a Attribute) bool {
	_, ok := s[a]
	return ok
}

// Equal reports whether s and t contain exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool {
	if len(s) != len(t) {
		return false
	}
	for a := range s {
		if !t.Contains(a) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every attribute of s is in t.
func (s AttrSet) SubsetOf(t AttrSet) bool {
	for a := range s {
		if !t.Contains(a) {
			return false
		}
	}
	return true
}

// Union returns a new set containing the attributes of both s and t.
func (s AttrSet) Union(t AttrSet) AttrSet {
	out := make(AttrSet, len(s)+len(t))
	for a := range s {
		out[a] = struct{}{}
	}
	for a := range t {
		out[a] = struct{}{}
	}
	return out
}

// Clone returns an independent copy of s.
func (s AttrSet) Clone() AttrSet {
	out := make(AttrSet, len(s))
	for a := range s {
		out[a] = struct{}{}
	}
	return out
}

// Sorted returns the attributes of s as a list in lexical order. It provides
// a deterministic iteration order for constructions and output.
func (s AttrSet) Sorted() List {
	out := make(List, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set in brace notation with sorted attributes.
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(a))
	}
	b.WriteByte('}')
	return b.String()
}
