// Package negative holds lock use consistent with the fixture ranking
// (S.a=10 before S.b=20), and a package every key of that ranking names:
// both fields of S and the summarized Ext.Do exist.
package negative

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
	n int // not a mutex: needs no rank
}

// Ext.Do is summarized as acquiring a.
type Ext struct{}

func (Ext) Do() {}

// A summarized call taken before the later-ranked lock.
func (s *S) ViaSummary(e Ext) {
	e.Do()
	s.b.Lock()
	s.b.Unlock()
}

// A mutex that is no struct field is outside the ranking.
func Local() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return 1
}

// Correct nesting order.
func (s *S) Ordered() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

// Release before taking the earlier-ranked lock: never held together.
func (s *S) Sequential() {
	s.b.Lock()
	s.b.Unlock()
	s.a.Lock()
	s.a.Unlock()
}

// A goroutine starts with an empty held set.
func (s *S) Spawn() {
	s.b.Lock()
	go func() {
		s.a.Lock()
		s.a.Unlock()
	}()
	s.b.Unlock()
}

// Branch-local acquisitions do not leak into the other branch.
func (s *S) Branches(x bool) {
	if x {
		s.b.Lock()
		s.b.Unlock()
	} else {
		s.a.Lock()
		s.b.Lock()
		s.b.Unlock()
		s.a.Unlock()
	}
}
