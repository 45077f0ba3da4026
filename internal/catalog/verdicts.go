package catalog

import (
	"math"
	"sync"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// DefaultMemoCapacity bounds the verdict store — implied and refuted verdicts
// together — when no capacity is given.
const DefaultMemoCapacity = 1 << 16

// evictionSample is how many residents a full store looks at to pick a
// victim, whatever its size; a store no larger is examined whole.
const evictionSample = 8

// verdicts stores what the pattern search decided, each verdict until a
// mutation can change it. ODs are decided on two rows, which leaves one way
// per kind: M ⊨ φ is monotone in M, so an implied verdict (tier "memo")
// stands until an OD is withdrawn; a refutation (tier "negative") is a
// two-row model of M falsifying φ, so it stands until an added OD rejects
// that model — attributes a witness never assigned reading Equal, the
// extension the prover validated it under.
//
// Resident verdicts are valid for gen exactly: get answers only a reader of
// gen, put refuses a verdict decided against any other (a search that raced a
// mutation files nothing: its witness was never checked against what the
// mutation added) and advance drops what a mutation can have changed before
// the catalog publishes the new generation. No entry carries a stamp and no
// stale entry can exist. Safe for concurrent use: lookups share the lock.
type verdicts struct {
	mu      sync.RWMutex
	cap     int
	gen     uint64
	implied map[string]uint64 // question key → cost of the search that decided it
	refuted map[string]refutation

	evictions uint64
}

// refutation's witness satisfies the declared set and falsifies od, the
// question it is filed under. Nothing reads od, which the negative closure
// kept too: the ≈ 0.5 KB it pins per entry is a quarter of prove-search's
// heap, and without it the collector runs 44 % more often there, which the
// benchmark's p99 reads as +26 % (CHANGES.md, where the verdict store
// was made one type). It goes when the benchmark stops coupling its tail to
// the collector — a fixed heap for the timed phase (ROADMAP item 2(f)) —
// and not before: the in-process ledger (item 1) records numbers, it does
// not change what the collector does.
type refutation struct {
	od      core.OD
	witness *core.Pattern
	cost    uint64
}

// newVerdicts creates a store bounded to capacity verdicts of both kinds
// together; capacity <= 0 selects DefaultMemoCapacity.
func newVerdicts(capacity int) *verdicts {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	return &verdicts{
		cap:     capacity,
		implied: make(map[string]uint64),
		refuted: make(map[string]refutation),
	}
}

// get looks key (core.OD.Key of the canonical question) up for a reader of
// generation gen; ok is false when nothing is stored or the store is at
// another generation. A refutation's witness is shared and read-only.
func (s *verdicts) get(key string, gen uint64) (implied bool, witness *core.Pattern, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if gen != s.gen {
		return false, nil, false
	}
	if r, found := s.refuted[key]; found {
		return false, r.witness, true
	}
	_, found := s.implied[key]
	return found, nil, found
}

// put files the verdict a search against generation gen reached for od,
// whose key is key. od may share the asker's slices; a filed refutation
// keeps its own copy. A full store admits it only by evicting the cheapest
// sampled resident, and only when the newcomer cost at least as much to
// decide (prover.Verdict.Cost): recomputing a 4-attribute answer is the
// smallest miss penalty there is, a near-limit refutation is worth defending.
// Within a generation the verdict is a function of the question, so a key is
// never in both sets; two searches of it finishing together file one entry
// twice, at worst for one needless eviction.
func (s *verdicts) put(key string, od core.OD, v prover.Verdict, gen uint64) {
	if !v.Implied {
		od = ownOD(od)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen {
		return
	}
	if len(s.implied)+len(s.refuted) >= s.cap {
		victim, cost, isRefuted, _ := s.cheapest()
		if cost > v.Cost {
			return
		}
		if isRefuted {
			delete(s.refuted, victim)
		} else {
			delete(s.implied, victim)
		}
		s.evictions++
	}
	if v.Implied {
		s.implied[key] = v.Cost
	} else {
		s.refuted[key] = refutation{od: od, witness: v.Witness, cost: v.Cost}
	}
}

// cheapest returns the lowest-cost of at most evictionSample residents, taken
// in map-iteration order (it starts at a random place) from both sets — half
// each, a set smaller than its half ceding the rest to the other — and how
// many it examined.
func (s *verdicts) cheapest() (key string, cost uint64, isRefuted bool, examined int) {
	cost = math.MaxUint64
	fromImplied := min(len(s.implied), max(evictionSample/2, evictionSample-len(s.refuted)))
	for k, c := range s.implied {
		if examined == fromImplied {
			break
		}
		examined++
		if c < cost {
			key, cost = k, c
		}
	}
	for k, r := range s.refuted {
		if examined == evictionSample {
			break
		}
		examined++
		if r.cost < cost {
			key, cost, isRefuted = k, r.cost, true
		}
	}
	return key, cost, isRefuted, examined
}

// advance moves the store to generation gen across a mutation that net-added
// the ODs of added and, when shrank, withdrew at least one; the catalog calls
// it under its exclusive lock, before publishing gen. Implied verdicts fall
// iff something was withdrawn, a refutation iff its witness violates an added
// OD; a mutation that did neither (a seeded generation number) only restamps.
func (s *verdicts) advance(gen uint64, added []core.OD, shrank bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen = gen
	if shrank && len(s.implied) > 0 {
		s.implied = make(map[string]uint64)
	}
	if len(added) == 0 {
		return
	}
	for k, r := range s.refuted {
		for _, od := range added {
			if !r.witness.HoldsOD(od) {
				delete(s.refuted, k)
				break
			}
		}
	}
}

// MemoStats is a point-in-time snapshot of the verdict store's counters. Size
// counts implied verdicts only — refutations are Stats.Negative — and Capacity
// bounds the two together. Hits and Misses count lookups of either kind; the
// catalog fills them in from the tier counters, which already count them (a
// hit answers as tier negative or memo, a miss goes on to a search).
type MemoStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Size       int    `json:"size"`
	Capacity   int    `json:"capacity"`
	Generation uint64 `json:"generation"`
}

// stats returns the store's own counters and the number of stored
// refutations.
func (s *verdicts) stats() (memo MemoStats, refuted int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return MemoStats{
		Evictions:  s.evictions,
		Size:       len(s.implied),
		Capacity:   s.cap,
		Generation: s.gen,
	}, len(s.refuted)
}
