package catalog

import (
	"sync"
	"sync/atomic"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// DefaultMemoCapacity bounds the verdict memo when no capacity is given.
const DefaultMemoCapacity = 1 << 16

// memoShards is the shard count of the verdict memo. Sharding by key hash
// keeps concurrent provers from serializing on a single lock; 16 shards is
// plenty for the reader counts a single process sees.
const memoShards = 16

// VerdictMemo is a bounded, sharded, generation-stamped verdict store.
//
// The memo is read and written through At(gen), a view pinned to one
// generation. Every entry records the generation of the view that stored
// it, and a view only ever reads entries carrying its own generation. The
// tier chain therefore memoizes safely against an immutable catalog
// generation without any lock held across the (exponential) decide: a
// verdict computed against generation g and stored after the catalog has
// moved to g+1 lands under stamp g, where no g+1 reader can see it.
//
// Invalidate advances the current generation — an O(1) mutation cost paid
// instead on later writes, which evict entries from older generations first
// when a shard fills, then the cheapest live verdicts (see Put). The catalog
// invalidates on every effective constraint mutation and hands each
// generation it publishes its own view via At.
//
// The memo and its views are safe for concurrent use.
type VerdictMemo struct {
	gen    atomic.Uint64
	perCap int
	shards [memoShards]memoShard
}

type memoShard struct {
	mu        sync.Mutex
	m         map[string]memoEntry
	hits      uint64
	misses    uint64
	evictions uint64
}

type memoEntry struct {
	gen uint64
	v   prover.Verdict
}

// NewVerdictMemo creates a memo bounded to capacity verdicts, rounded up to
// the next multiple of the shard count (the per-shard bound must be whole,
// so the real bound — reported by MemoStats.Capacity — can exceed a
// non-multiple capacity by up to memoShards-1 entries). capacity <= 0
// selects DefaultMemoCapacity.
func NewVerdictMemo(capacity int) *VerdictMemo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	per := (capacity + memoShards - 1) / memoShards
	m := &VerdictMemo{perCap: per}
	for i := range m.shards {
		m.shards[i].m = make(map[string]memoEntry)
	}
	return m
}

// shard picks the shard for a key by FNV-1a.
func (m *VerdictMemo) shard(key string) *memoShard {
	return &m.shards[core.HashString(key)%memoShards]
}

// MemoView is the memo as one generation sees it: it reads and writes only
// entries stamped with that generation. The memo tier of the verdict chain
// is its one product caller.
type MemoView struct {
	m   *VerdictMemo
	gen uint64
}

// At returns the memo's cache view for the given generation.
func (m *VerdictMemo) At(gen uint64) MemoView { return MemoView{m: m, gen: gen} }

// Get returns the verdict stored under key (core.OD.Key of the canonical
// question). Entries stored under a different generation read as misses.
func (v MemoView) Get(key string) (prover.Verdict, bool) {
	s := v.m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok || e.gen != v.gen {
		s.misses++
		return prover.Verdict{}, false
	}
	s.hits++
	return e.v, true
}

// Put stores a verdict. Generations only increase, so the rules are
// monotonic and race-free without consulting the current generation for the
// common paths: a Put never displaces an entry from a newer generation, and eviction (shard full) removes strictly older
// entries first — they can never be read again. When the shard is still
// full, a view that is still current evicts cost-aware: the cheapest
// resident verdict (prover.Verdict.Cost, recorded when the verdict was
// decided) goes first, and only when the incoming verdict cost at least as
// much — recomputing a 4-attribute answer is the smallest possible miss
// penalty, while a near-limit refutation is worth defending. A verdict that
// finds no room, or that is cheaper than everything resident, is dropped.
// The victim scan is O(shard size), paid only when a full shard misses —
// the same inserts that already paid an exponential decide.
func (v MemoView) Put(key string, verdict prover.Verdict) {
	s := v.m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		if e.gen > v.gen {
			return
		}
		s.m[key] = memoEntry{gen: v.gen, v: verdict}
		return
	}
	if len(s.m) >= v.m.perCap {
		for k, e := range s.m {
			if e.gen < v.gen {
				delete(s.m, k)
				s.evictions++
				if len(s.m) < v.m.perCap {
					break
				}
			}
		}
		if len(s.m) >= v.m.perCap {
			if v.gen != v.m.gen.Load() {
				return
			}
			victim, vcost, found := "", uint64(0), false
			for k, e := range s.m {
				if e.gen > v.gen {
					continue
				}
				if !found || e.v.Cost < vcost {
					victim, vcost, found = k, e.v.Cost, true
				}
			}
			if !found || vcost > verdict.Cost {
				return
			}
			delete(s.m, victim)
			s.evictions++
		}
	}
	s.m[key] = memoEntry{gen: v.gen, v: verdict}
}

// Invalidate advances the current generation and returns it; views pinned to
// older generations keep working against their own entries, which become
// preferred eviction victims.
func (m *VerdictMemo) Invalidate() uint64 { return m.gen.Add(1) }

// seed fast-forwards the generation counter to at least gen, so a recovered
// or replicated catalog resumes the leader's generation numbering instead of
// restarting at one. A no-op when the counter is already at or past gen;
// existing entries stamped with older generations simply become stale, which
// the view machinery already handles.
func (m *VerdictMemo) seed(gen uint64) {
	for {
		cur := m.gen.Load()
		if gen <= cur || m.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Generation returns the current memo generation.
func (m *VerdictMemo) Generation() uint64 { return m.gen.Load() }

// MemoStats is a point-in-time snapshot of memo counters.
type MemoStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Size       int    `json:"size"`
	Capacity   int    `json:"capacity"`
	Generation uint64 `json:"generation"`
}

// Stats aggregates the shard counters. Size counts resident entries,
// including ones a future Get would expire as stale.
func (m *VerdictMemo) Stats() MemoStats {
	st := MemoStats{Capacity: m.perCap * memoShards, Generation: m.gen.Load()}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Size += len(s.m)
		s.mu.Unlock()
	}
	return st
}
