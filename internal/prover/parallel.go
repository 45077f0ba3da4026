package prover

import (
	"context"
	"sync"
	"sync/atomic"

	"odlib/internal/core"
)

// The pattern search. Signs are assigned slot by slot in the working
// universe's name order — Equal, Less, Greater, the first non-Equal sign
// fixed to Less since a pattern and its negation satisfy the same ODs — and
// after each assignment the ODs mentioning that slot are re-evaluated
// three-valued over the assigned prefix: a working OD no completion can
// satisfy, or a question no completion can falsify, cuts the subtree. Cuts
// only remove subtrees without counterexamples, so the depth-first order —
// and with it the first counterexample found — is that of the exhaustive
// enumeration (oracle_test.go keeps that enumerator as the reference).
//
// Parallel search: the tree is split on its first few levels into prefixes,
// the DFS-ordered prefix list is cut into one contiguous block per worker,
// and each worker exhausts its block's subtrees with the same enumeration
// the sequential path uses. The blocks are fixed up front — no work
// stealing, no shared queue — so the only cross-worker traffic is one atomic
// stop flag and the final node tallies.
//
// Block (rather than round-robin) assignment is deliberate: it starts the
// workers at evenly spaced points of the DFS leaf order, so a counterexample
// that sequential enumeration would only reach after grinding most of the
// tree — swaps needing Greater signs live in the subtrees DFS visits last —
// is near the start of SOME worker's block. With cancel-on-first-witness,
// the whole pool then stops after a fraction of the sequential node count:
// refuted-heavy workloads speed up even without spare cores, and implied
// questions (which must exhaust the tree either way) still split the nodes
// evenly enough across real cores.

// maxWorkers caps the pool; beyond this the prefix blocks get too small to
// amortize goroutine startup against.
const maxWorkers = 64

// fanOutAfterNodes is the work a search must have spent inline before it
// fans out. Propagation makes a search's size a property of its constraints,
// not of its attribute count — a 12-attribute chain question is ≈ 1k nodes,
// one led by a late-sorting attribute 3^12 — so the gate is work done: the
// caller enumerates sequentially, and only a search still running after this
// many nodes (≈ 50 µs, several times what launching the workers and
// acquiring pool slots costs) restarts across prefix blocks. Re-visiting
// the probe's nodes is at most this much again.
const fanOutAfterNodes = 4096

// stopCheckMask throttles stop-flag, budget and context polls to every 1024
// visited nodes — frequent enough that cancellation lands in microseconds,
// rare enough that the hot loop stays branch-predictable.
const stopCheckMask = 1<<10 - 1

// searchState is one enumeration's mutable state: the sequential search owns
// exactly one, each parallel worker owns its own with a shared stop flag.
type searchState struct {
	ctx        context.Context
	stop       *atomic.Bool // pool-wide abort; nil for sequential searches
	signs      []core.Sign  // by slot; unassigned past the current depth
	cods       []compiledOD // working ODs over slots, the question last
	watchStart []int32      // watch[watchStart[k]:watchStart[k+1]]: cods mentioning slot k
	watch      []int32
	budget     uint64 // abort once this many nodes are spent; 0 = unbounded
	nodes      uint64
	err        error // context error when the abort came from cancellation
	aborted    bool
}

// newSearch readies an enumeration of the compiled round over signs.
func (d *decideState) newSearch(ctx context.Context, signs []core.Sign) searchState {
	for i := range signs {
		signs[i] = unassigned
	}
	return searchState{ctx: ctx, signs: signs, cods: d.cods, watchStart: d.watchStart, watch: d.watch}
}

// checkAbort polls the stop flag, the node budget and the context; it
// reports whether the enumeration should unwind.
func (s *searchState) checkAbort() bool {
	if s.stop != nil && s.stop.Load() {
		s.aborted = true
		return true
	}
	if s.budget != 0 && s.nodes >= s.budget {
		s.aborted = true
		return true
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		s.aborted = true
		return true
	}
	return false
}

// cut reports whether assigning slot k closed the subtree: a working OD is
// violated, or the question holds, whatever the remaining slots get.
func (s *searchState) cut(k int) bool {
	question := int32(len(s.cods) - 1)
	for _, j := range s.watch[s.watchStart[k]:s.watchStart[k+1]] {
		st := s.cods[j].status(s.signs)
		if j == question {
			if st == odHolds {
				return true
			}
		} else if st == odViolated {
			return true
		}
	}
	return false
}

// search enumerates sign assignments depth-first over slots k and up; slots
// below k are assigned. seenLess records whether a non-Equal sign has been
// placed yet; the first one is fixed to Less, exploiting negation
// invariance. It returns true when the assignment, completed in s.signs,
// satisfies every working OD while falsifying the question. A return with
// s.aborted set is void — the enumeration was cut short.
func (s *searchState) search(k int, seenLess bool) bool {
	if s.aborted {
		return false
	}
	s.nodes++
	if s.nodes&stopCheckMask == 0 && s.checkAbort() {
		return false
	}
	if k == len(s.signs) {
		// A full assignment gets the full check, every working OD and the
		// question — which is all propagation could have said about it.
		question := len(s.cods) - 1
		if s.cods[question].holds(s.signs) {
			return false
		}
		for _, c := range s.cods[:question] {
			if !c.holds(s.signs) {
				return false
			}
		}
		return true
	}
	if k > 0 && s.cut(k-1) {
		return false
	}
	s.signs[k] = core.Equal
	if s.search(k+1, seenLess) {
		return true
	}
	s.signs[k] = core.Less
	if s.search(k+1, true) {
		return true
	}
	if seenLess {
		s.signs[k] = core.Greater
		if s.search(k+1, true) {
			return true
		}
	}
	s.signs[k] = unassigned
	return false
}

// runSearch finds an assignment of the round's slots satisfying every
// working OD while falsifying the question, or reports that none exists.
// The caller's goroutine always starts the enumeration sequentially; a
// prover configured for parallel search gives that probe a node budget and,
// when it runs out, restarts the search across prefix blocks. The returned
// node count covers the probe and all workers.
func (p *Prover) runSearch(ctx context.Context, d *decideState) ([]core.Sign, uint64, error) {
	d.seq = d.newSearch(ctx, d.signs)
	s := &d.seq
	if p.workers > 1 {
		s.budget = fanOutAfterNodes
	}
	if s.search(0, false) && !s.aborted {
		return s.signs, s.nodes, nil
	}
	if !s.aborted || s.err != nil {
		return nil, s.nodes, s.err
	}
	found, nodes, err := p.searchParallel(ctx, d)
	return found, s.nodes + nodes, err
}

// prefixAssign is one subtree root: the first depth signs plus whether a
// Less has been placed among them (which decides Greater-eligibility below).
type prefixAssign struct {
	signs    []core.Sign
	seenLess bool
}

// enumeratePrefixes lists, in DFS order, every valid assignment of the first
// depth sign positions, choosing the smallest depth whose prefix count gives
// each of the workers a handful of subtrees. Validity mirrors the search's
// halving rule: Greater appears only after a Less.
func enumeratePrefixes(n, workers int) []prefixAssign {
	// Prefix counts follow f(d) = noLess(d) + withLess(d) with
	// noLess(d+1) = noLess(d) (the Equal child) and
	// withLess(d+1) = noLess(d) + 3*withLess(d): 2, 5, 14, 41, 122, ...
	target := workers * 8
	depth, noLess, withLess := 0, 1, 0
	for depth < n && depth < 7 && noLess+withLess < target {
		withLess = noLess + 3*withLess // noLess stays 1: only the all-Equal prefix
		depth++
	}
	var out []prefixAssign
	var emit func(prefix []core.Sign, k int, seenLess bool)
	emit = func(prefix []core.Sign, k int, seenLess bool) {
		if k == depth {
			out = append(out, prefixAssign{signs: append([]core.Sign(nil), prefix...), seenLess: seenLess})
			return
		}
		prefix[k] = core.Equal
		emit(prefix, k+1, seenLess)
		prefix[k] = core.Less
		emit(prefix, k+1, true)
		if seenLess {
			prefix[k] = core.Greater
			emit(prefix, k+1, true)
		}
		prefix[k] = core.Equal
	}
	emit(make([]core.Sign, depth), 0, false)
	return out
}

// searchParallel fans the enumeration out across prefix blocks. One block
// always runs inline on the caller's goroutine; the rest go to spawned
// workers — all of them when the prover is unpooled, however many the
// shared Pool grants without blocking otherwise. The first worker to hit a
// counterexample publishes it and raises the stop flag; everyone else
// unwinds within one poll interval. Context cancellation stops the pool the
// same way, surfacing the context's error.
func (p *Prover) searchParallel(ctx context.Context, d *decideState) ([]core.Sign, uint64, error) {
	n := len(d.ids)
	prefixes := enumeratePrefixes(n, p.workers)
	want := p.workers
	if want > len(prefixes) {
		want = len(prefixes)
	}
	extra := want - 1
	if p.pool != nil {
		extra = p.pool.tryAcquire(extra)
		defer p.pool.release(extra)
	}
	parts := extra + 1

	var (
		stop       atomic.Bool
		totalNodes atomic.Uint64
		mu         sync.Mutex
		found      []core.Sign
		ctxErr     error
		wg         sync.WaitGroup
	)
	depth := len(prefixes[0].signs)
	runBlock := func(block []prefixAssign) {
		s := d.newSearch(ctx, make([]core.Sign, n))
		if parts > 1 {
			s.stop = &stop
		}
	blocks:
		for _, pre := range block {
			copy(s.signs[:depth], pre.signs)
			for k := 0; k+1 < depth; k++ {
				// search checks slot depth-1 on entry; the prefix's earlier
				// slots were assigned wholesale and are checked here.
				if s.cut(k) {
					s.nodes++
					continue blocks
				}
			}
			if s.search(depth, pre.seenLess) && !s.aborted {
				mu.Lock()
				if found == nil {
					found = s.signs
				}
				mu.Unlock()
				stop.Store(true)
				break
			}
			if s.aborted {
				break
			}
		}
		totalNodes.Add(s.nodes)
		if s.err != nil {
			mu.Lock()
			if ctxErr == nil {
				ctxErr = s.err
			}
			mu.Unlock()
		}
	}
	for i := 0; i < parts-1; i++ {
		block := prefixes[i*len(prefixes)/parts : (i+1)*len(prefixes)/parts]
		if len(block) == 0 {
			continue
		}
		wg.Add(1)
		go func(block []prefixAssign) {
			defer wg.Done()
			runBlock(block)
		}(block)
	}
	// The caller — the one participant guaranteed to be running even on a
	// saturated or single-core machine — takes the LAST block: the Greater-
	// heavy subtrees DFS visits last are where deep refutations concentrate,
	// so the inline share of the work is the share most likely to cancel
	// everyone else early.
	runBlock(prefixes[(parts-1)*len(prefixes)/parts:])
	wg.Wait()
	switch {
	case found != nil:
		return found, totalNodes.Load(), nil
	case ctxErr != nil:
		return nil, totalNodes.Load(), ctxErr
	default:
		return nil, totalNodes.Load(), nil
	}
}
