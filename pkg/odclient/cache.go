package odclient

import (
	"container/list"
	"sync"
	"time"
)

// generations is the client's view of each shard's constraint generation:
// the highest stamp seen on any response, plus when it was last confirmed.
// The verdict cache keys validity on this view — equal generation means the
// shard saw no effective mutation since the verdict was computed.
type generations struct {
	mu   sync.Mutex
	gen  map[string]uint64
	seen map[string]time.Time
}

func newGenerations() *generations {
	return &generations{gen: make(map[string]uint64), seen: make(map[string]time.Time)}
}

// observe folds a stamp into the view. A newer generation advances it; an
// equal one refreshes the confirmation time; an older one (a response that
// raced a mutation) is ignored — the view must be monotone or a stale
// response could resurrect dead cache entries.
func (g *generations) observe(schema string, gen uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur, ok := g.gen[schema]; !ok || gen > cur {
		g.gen[schema] = gen
		g.seen[schema] = time.Now()
	} else if gen == cur {
		g.seen[schema] = time.Now()
	}
}

// current returns the shard's generation, when it was last confirmed, and
// whether the shard has been seen at all.
func (g *generations) current(schema string) (uint64, time.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen, ok := g.gen[schema]
	return gen, g.seen[schema], ok
}

// verdictCache is a bounded LRU of generation-stamped verdicts. Entries are
// not expired by time — staleness is governed by generation comparison in
// Client.cacheGet, with the confirmation age only deciding whether a
// /generation poll is due first.
type verdictCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	v   Verdict
}

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

func (vc *verdictCache) get(key string) (Verdict, bool) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	el, ok := vc.entries[key]
	if !ok {
		return Verdict{}, false
	}
	vc.order.MoveToFront(el)
	return el.Value.(*cacheEntry).v, true
}

func (vc *verdictCache) put(key string, v Verdict) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if el, ok := vc.entries[key]; ok {
		el.Value.(*cacheEntry).v = v
		vc.order.MoveToFront(el)
		return
	}
	vc.entries[key] = vc.order.PushFront(&cacheEntry{key: key, v: v})
	for vc.order.Len() > vc.cap {
		last := vc.order.Back()
		vc.order.Remove(last)
		delete(vc.entries, last.Value.(*cacheEntry).key)
	}
}

func (vc *verdictCache) evict(key string) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if el, ok := vc.entries[key]; ok {
		vc.order.Remove(el)
		delete(vc.entries, key)
	}
}

// len reports resident entries (tests).
func (vc *verdictCache) len() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.order.Len()
}
