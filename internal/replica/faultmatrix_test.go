package replica

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"odlib/internal/router"
	"odlib/internal/store"
)

// The fault matrix. Each case injects one replication fault through the
// harness and asserts the one property that matters: the follower never
// serves a wrong verdict. It may refuse (lag bound), it may lag (leader
// down), it may bootstrap from a snapshot — but every answer it does give is
// the leader's answer at the follower's generation, checked against an
// oracle of (generation → verdicts) recorded on the leader as history was
// written.

const matrixSchema = "ships"

var matrixDeclares = []string{
	"[a] -> [b]",
	"[b] -> [c]",
	"[c] -> [d]",
	"[d] -> [e]",
	"[e] -> [f]",
}

var matrixProbes = []string{
	"[a] -> [c]",
	"[a] -> [f]",
	"[b] -> [a]",
	"[f] -> [a]",
}

// verdictOracle records, per leader generation, the verdicts of every probe
// — the ground truth a lagging follower is held to.
type verdictOracle struct {
	t  *testing.T
	mu sync.Mutex
	m  map[uint64][]bool
}

func newOracle(t *testing.T) *verdictOracle {
	return &verdictOracle{t: t, m: make(map[uint64][]bool)}
}

func probeVerdicts(t *testing.T, rt *router.Router, schema string) []bool {
	t.Helper()
	out := make([]bool, len(matrixProbes))
	for i, probe := range matrixProbes {
		res, _, _, err := rt.ProveOne(context.Background(), schema, parseODs(t, probe))
		if err != nil {
			t.Fatalf("prove %q: %v", probe, err)
		}
		out[i] = res.Implied
	}
	return out
}

// record captures the leader's current (generation, verdicts) pair.
func (o *verdictOracle) record(rt *router.Router) {
	o.t.Helper()
	gen, err := rt.GenerationOf(matrixSchema)
	if err != nil {
		o.t.Fatal(err)
	}
	v := probeVerdicts(o.t, rt, matrixSchema)
	o.mu.Lock()
	o.m[gen] = v
	o.mu.Unlock()
}

// check asserts the follower's answers equal the leader's answers at the
// follower's own generation. A generation the leader never produced, or a
// differing verdict, is the wrong-answer failure mode.
func (o *verdictOracle) check(follower *router.Router) {
	o.t.Helper()
	gen, err := follower.GenerationOf(matrixSchema)
	if err != nil {
		o.t.Fatal(err)
	}
	o.mu.Lock()
	want, known := o.m[gen]
	o.mu.Unlock()
	if !known {
		o.t.Fatalf("follower serves generation %d, which the leader never produced", gen)
	}
	got := probeVerdicts(o.t, follower, matrixSchema)
	for i := range want {
		if got[i] != want[i] {
			o.t.Fatalf("at generation %d, probe %q: follower says %v, leader said %v",
				gen, matrixProbes[i], got[i], want[i])
		}
	}
}

// declareRecorded pushes statements one at a time, recording the oracle
// after each so every intermediate generation has ground truth.
func declareRecorded(lf *leaderFixture, o *verdictOracle, stmts ...string) {
	for _, s := range stmts {
		lf.declare(matrixSchema, s)
		o.record(lf.Router())
	}
}

func TestFaultMatrixLeaderKillMidShip(t *testing.T) {
	lf := newLeader(t, store.Options{SegmentRecords: 1})
	oracle := newOracle(t)
	declareRecorded(lf, oracle, matrixDeclares[:3]...)

	flaky := newFlaky(nil)
	ff := newFollower(t, lf.URL(), &http.Client{Transport: flaky}, 0)
	ff.sync()

	// More history lands, but fetches now arrive torn — the follower gets a
	// partial ship — and then the leader dies mid-stream.
	declareRecorded(lf, oracle, matrixDeclares[3:]...)
	flaky.truncateBodies(`^/segments/.+/\d+$`, 10)
	_ = ff.pass()
	lf.Kill()

	// Passes fail while the leader is down; reads still serve, and every
	// answer matches the leader's at the follower's generation.
	if err := ff.pass(); err == nil {
		t.Fatal("pass against a dead leader succeeded")
	}
	oracle.check(ff.rt)

	// The leader returns, the transport heals, and the pair converges.
	lf.Restart()
	flaky.truncateBodies("", -1)
	ff.sync()
	assertConverged(t, lf.Router(), ff.rt, matrixSchema, matrixProbes)
}

func TestFaultMatrixFollowerKillMidReplay(t *testing.T) {
	lf := newLeader(t, store.Options{SegmentRecords: 2})
	oracle := newOracle(t)
	declareRecorded(lf, oracle, matrixDeclares...)

	// Torn fetches leave a partially-replayed segment (possibly a dangling
	// half frame) on the follower's disk; then the follower dies.
	flaky := newFlaky(nil)
	flaky.truncateBodies(`^/segments/.+/\d+$`, 10)
	ff := newFollower(t, lf.URL(), &http.Client{Transport: flaky}, 0)
	_ = ff.pass()
	_ = ff.pass()
	ff.Kill()

	// Restart from the same dir: recovery truncates any torn tail, resumes
	// from the watermark, and must not double-apply (generation equality in
	// assertConverged would catch it).
	ff.Restart()
	if fh := flaky.faultHits(); fh == 0 {
		t.Fatal("torn-fetch fault never fired; the test exercised nothing")
	}
	flaky.truncateBodies("", -1)
	ff.sync()
	assertConverged(t, lf.Router(), ff.rt, matrixSchema, matrixProbes)
	oracle.check(ff.rt)
}

func TestFaultMatrixTornSegmentFetch(t *testing.T) {
	eachFollowerDir(t, func(t *testing.T, dir string) {
		lf := newLeader(t, store.Options{})
		oracle := newOracle(t)
		declareRecorded(lf, oracle, matrixDeclares...)

		// Every fetch is cut after 7 bytes — mid-frame, always. Each pass still
		// banks the verified prefix and resumes, so the follower grinds forward
		// through the fault and converges without the transport ever healing.
		flaky := newFlaky(nil)
		flaky.truncateBodies(`^/segments/.+/\d+$`, 7)
		ff := newFollowerAt(t, dir, lf.URL(), &http.Client{Transport: flaky}, 0)
		for i := 0; i < 500; i++ {
			if err := ff.pass(); err == nil {
				break
			}
			// The oracle applies once the shard exists on the follower — before
			// the first applied record there is no generation to hold it to.
			if _, _, _, watermark := ff.rt.FollowerNext(matrixSchema); watermark > 0 {
				oracle.check(ff.rt)
			}
		}
		if flaky.faultHits() == 0 {
			t.Fatal("truncation fault never fired")
		}
		ff.sync()
		assertConverged(t, lf.Router(), ff.rt, matrixSchema, matrixProbes)
	})
}

func TestFaultMatrixCompactionDeletesUnfetchedSegment(t *testing.T) {
	eachFollowerDir(t, func(t *testing.T, dir string) {
		lf := newLeader(t, store.Options{SegmentRecords: 1})
		oracle := newOracle(t)
		declareRecorded(lf, oracle, matrixDeclares[:2]...)

		flaky := newFlaky(nil)
		ff := newFollowerAt(t, dir, lf.URL(), &http.Client{Transport: flaky}, 0)
		ff.sync()

		// Hold compaction while more history accumulates, so its segments are
		// still listed when the follower polls…
		resume := lf.Router().ShardStore(matrixSchema).StallCompaction()
		declareRecorded(lf, oracle, matrixDeclares[2:]...)

		// …then compact them away between the follower's poll and its fetch:
		// the hook fires on the first segment fetch, at which point the poll
		// response is already in hand and stale.
		var once sync.Once
		flaky.onRequest(func(r *http.Request) {
			if !segmentFetchPat.MatchString(r.URL.Path) {
				return
			}
			once.Do(func() {
				resume()
				if _, err := lf.Router().SnapshotOne(matrixSchema); err != nil {
					t.Errorf("compacting leader: %v", err)
				}
			})
		})
		ff.sync()
		flaky.onRequest(nil)

		if boots := ff.rt.ReplicaStatuses()[matrixSchema].Bootstraps; boots == 0 {
			t.Fatal("follower converged without bootstrapping; the compaction race never happened")
		}
		assertConverged(t, lf.Router(), ff.rt, matrixSchema, matrixProbes)
		oracle.check(ff.rt)
	})
}

func TestFaultMatrixLagBoundViolation(t *testing.T) {
	lf := newLeader(t, store.Options{SegmentRecords: 1})
	oracle := newOracle(t)
	declareRecorded(lf, oracle, matrixDeclares[:2]...)

	flaky := newFlaky(nil)
	ff := newFollower(t, lf.URL(), &http.Client{Transport: flaky}, 1)
	ff.sync()
	oracle.check(ff.rt)

	// Fetches fail, metadata polls succeed: the follower learns how far
	// behind it is but cannot catch up. The lag bound is 1; three unshipped
	// records put it over.
	flaky.failMatching(`^/segments/.+/\d+$`)
	declareRecorded(lf, oracle, matrixDeclares[2:]...)
	if err := ff.pass(); err == nil {
		t.Fatal("pass with failing fetches succeeded")
	}

	// Over the bound, proves must refuse — a stale verdict would be wrong,
	// and a refusal is the contract.
	_, _, _, err := ff.rt.ProveOne(context.Background(), matrixSchema, parseODs(t, matrixProbes[0]))
	if !router.IsLagExceeded(err) {
		t.Fatalf("over-lag prove = %v, want IsLagExceeded", err)
	}
	// Listings and generation reads stay available at any lag.
	if _, err := ff.rt.Listing(matrixSchema); err != nil {
		t.Fatalf("over-lag listing = %v", err)
	}

	flaky.failMatching("")
	ff.sync()
	assertConverged(t, lf.Router(), ff.rt, matrixSchema, matrixProbes)
	oracle.check(ff.rt)
}

func TestFaultMatrixLeaderWALFailureShipsNothing(t *testing.T) {
	lf := newLeader(t, store.Options{})
	oracle := newOracle(t)
	declareRecorded(lf, oracle, matrixDeclares[:3]...)

	ff := newFollower(t, lf.URL(), nil, 0)
	ff.sync()

	// The leader's disk dies: mutations fail before acknowledgment, so the
	// follower must never see them — unacknowledged history does not ship.
	lf.Router().ShardStore(matrixSchema).FailWAL(fmt.Errorf("drill: disk died"))
	if _, err := lf.Router().Declare(matrixSchema, parseODs(t, matrixDeclares[3])); err == nil {
		t.Fatal("declare on failed WAL succeeded")
	}
	before, err := ff.rt.GenerationOf(matrixSchema)
	if err != nil {
		t.Fatal(err)
	}
	ff.sync()
	after, err := ff.rt.GenerationOf(matrixSchema)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("follower advanced %d -> %d on an unacknowledged mutation", before, after)
	}
	oracle.check(ff.rt)
}
