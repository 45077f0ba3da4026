// Package positive holds lockorder violations. Fixture config ranks
// S.a=10, S.b=20, and summarizes Ext.Do as acquiring S.a; the positive test
// adds stale entries, which have no line of their own and are reported at
// the package clause.
package positive // want lockorder "S.gone names no mutex field" lockorder "S.n names no mutex field" lockorder "Gone.mu names no mutex field" lockorder "Ext.Gone names no function" lockorder "T.mu, which has no rank"

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// T's mutexes have no rank, so no acquisition of them could be checked.
type T struct {
	mu           sync.Mutex // want lockorder "T.mu has no rank"
	sync.RWMutex            // want lockorder "embedded mutex in T"
}

// Inverted direct acquisition: b (20) held while taking a (10).
func (s *S) Inverted() {
	s.b.Lock()
	s.a.Lock() // want lockorder "rank"
	s.a.Unlock()
	s.b.Unlock()
}

// Re-acquiring a non-reentrant mutex.
func (s *S) Reentrant() {
	s.a.Lock()
	s.a.Lock() // want lockorder "already held"
	s.a.Unlock()
	s.a.Unlock()
}

// A deferred unlock keeps the lock held for the rest of the function.
func (s *S) DeferHeld() {
	s.b.Lock()
	defer s.b.Unlock()
	s.a.Lock() // want lockorder "rank"
	s.a.Unlock()
}

// lockA is summarized by the fixpoint pass as acquiring a.
func (s *S) lockA() {
	s.a.Lock()
	s.a.Unlock()
}

// Transitive violation through a same-package call.
func (s *S) ViaCall() {
	s.b.Lock()
	s.lockA() // want lockorder "may acquire"
	s.b.Unlock()
}

// Ext has no visible lock use; the fixture config's Acquires summary says
// Do takes S.a.
type Ext struct{}

func (Ext) Do() {}

func (Ext) Wait() {}

// Violation visible only through the configured cross-package-style summary.
func (s *S) ViaSummary(e Ext) {
	s.b.Lock()
	e.Do() // want lockorder "may acquire"
	s.b.Unlock()
}
