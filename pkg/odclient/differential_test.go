package odclient

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/rewrite"
	"odlib/internal/router"
)

// randomODs builds a random OD set over a small attribute pool, shaped to
// produce real transitive structure (the same workload shape the catalog's
// own differential harness uses).
func randomODs(rng *rand.Rand, n, pool int) []core.OD {
	attr := func() core.Attribute {
		return core.Attribute(fmt.Sprintf("a%d", rng.Intn(pool)))
	}
	list := func() core.List {
		l := make(core.List, 1+rng.Intn(3))
		for i := range l {
			l[i] = attr()
		}
		return l
	}
	out := make([]core.OD, n)
	for i := range out {
		out[i] = core.OD{LHS: list(), RHS: list()}
	}
	return out
}

// expandWitness widens a discriminating-attribute witness relation onto the
// union of attributes the declared set and the question mention; attributes
// the projection dropped are constant (both rows tie), which is exactly the
// information the projection removed.
func expandWitness(t *testing.T, projected *core.Relation, declared []core.OD, phi core.OD) *core.Relation {
	t.Helper()
	seen := map[core.Attribute]bool{}
	var universe core.List
	add := func(l core.List) {
		for _, a := range l {
			if !seen[a] {
				seen[a] = true
				universe = append(universe, a)
			}
		}
	}
	for _, od := range declared {
		add(od.LHS)
		add(od.RHS)
	}
	add(phi.LHS)
	add(phi.RHS)
	rel, err := core.NewRelation(universe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < projected.Len(); i++ {
		row := make([]int64, len(universe))
		for j, a := range universe {
			if projected.HasAttr(a) {
				v, err := projected.Value(i, a)
				if err != nil {
					t.Fatal(err)
				}
				row[j] = v.Int
			}
		}
		if err := rel.AddIntRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// requestLog is a transport that records what the client puts on the wire,
// as "METHOD /path" counts.
type requestLog struct {
	next http.RoundTripper
	mu   sync.Mutex
	seen map[string]int
}

func (l *requestLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.seen[r.Method+" "+r.URL.Path]++
	l.mu.Unlock()
	return l.next.RoundTrip(r)
}

// reset returns what was recorded since the last reset.
func (l *requestLog) reset() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := l.seen
	l.seen = map[string]int{}
	return seen
}

// TestRemoteVerdictsMatchLocalCatalog is the adapter's differential
// harness: for random constraint sets, every implication verdict obtained
// through the remote Reasoner — and every ORDER BY reduction obtained
// through the remote Constraints adapter or Client.ReduceOrder — must be
// identical to what a local catalog over the same declared set answers, and
// a Client.ReduceOrder puts nothing but proves on the wire: FD steps and OD
// steps alike are the daemon's answers, so no listing is read. The client
// runs with every mechanism on (coalescing, pipelining, cache), so the
// equivalence holds through the full stack, not just the plain wire path.
func TestRemoteVerdictsMatchLocalCatalog(t *testing.T) {
	ts, _ := newDaemon(t, router.Options{})
	wire := &requestLog{next: ts.Client().Transport, seen: map[string]int{}}
	c := newTestClient(t, ts,
		WithHTTPClient(&http.Client{Transport: wire}),
		WithPipelining(time.Millisecond, 32),
		WithCache(1024, -1))
	ctx := context.Background()

	proves := 0 // requests Client.ReduceOrder sent
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := fmt.Sprintf("s%d", seed)
		declared := randomODs(rng, 3+rng.Intn(5), 5)

		local := catalog.New()
		local.Add(declared...)
		stmts := make([]string, len(declared))
		for i, od := range declared {
			stmts[i] = od.String()
		}
		if err := c.Declare(ctx, schema, stmts...); err != nil {
			t.Fatalf("seed %d: declare: %v", seed, err)
		}

		remote := c.Reasoner(schema)
		for q := 0; q < 12; q++ {
			phi := randomODs(rng, 1, 5)[0]
			want, err := local.Implies(phi)
			if err != nil {
				t.Fatalf("seed %d: local: %v", seed, err)
			}
			got, err := remote.Implies(ctx, phi)
			if err != nil {
				t.Fatalf("seed %d: remote: %v", seed, err)
			}
			if got != want {
				t.Fatalf("seed %d: %s: remote=%v local=%v under %s",
					seed, phi, got, want, core.ODsString(declared))
			}
			if !want {
				// The remote witness must genuinely refute: satisfy every
				// declared OD, falsify the question. The server projects
				// witnesses onto discriminating attributes, so expand back
				// over the full universe first — omitted attributes tie.
				projected, err := remote.Counterexample(ctx, phi)
				if err != nil {
					t.Fatalf("seed %d: counterexample: %v", seed, err)
				}
				rel := expandWitness(t, projected, declared, phi)
				for _, od := range declared {
					ok, _, err := rel.Satisfies(od)
					if err != nil {
						t.Fatalf("seed %d: witness check: %v", seed, err)
					}
					if !ok {
						t.Fatalf("seed %d: witness violates declared %s", seed, od)
					}
				}
				ok, _, err := rel.Satisfies(phi)
				if err != nil {
					t.Fatalf("seed %d: witness check: %v", seed, err)
				}
				if ok {
					t.Fatalf("seed %d: witness fails to falsify %s", seed, phi)
				}
			}
		}

		// ORDER BY reductions: the remote Constraints adapter must reduce
		// exactly like the local catalog's own constraints.
		cons, err := c.Constraints(ctx, schema)
		if err != nil {
			t.Fatalf("seed %d: constraints: %v", seed, err)
		}
		localCons := rewrite.NewConstraints(nil, local.Declared())
		for q := 0; q < 4; q++ {
			order := make(core.List, 2+rng.Intn(3))
			for i := range order {
				order[i] = core.Attribute(fmt.Sprintf("a%d", rng.Intn(5)))
			}
			wantRes, err := rewrite.ReduceOrder(order, localCons)
			if err != nil {
				t.Fatalf("seed %d: local reduce: %v", seed, err)
			}
			// Client.ReduceOrder is the same reduction, step for step, and
			// whatever the verdict cache does not already hold it asks as
			// proves — nothing else goes on the wire.
			wire.reset()
			gotRes, err := c.ReduceOrder(ctx, schema, order)
			if err != nil {
				t.Fatalf("seed %d: Client.ReduceOrder: %v", seed, err)
			}
			if !gotRes.Reduced.Equal(wantRes.Reduced) || !reflect.DeepEqual(gotRes.Steps, wantRes.Steps) {
				t.Fatalf("seed %d: Client.ReduceOrder %v: %v by %+v, local %v by %+v",
					seed, order, gotRes.Reduced, gotRes.Steps, wantRes.Reduced, wantRes.Steps)
			}
			for req, n := range wire.reset() {
				if req != "POST /prove" && req != "POST /prove/batch" {
					t.Fatalf("seed %d: Client.ReduceOrder %v sent %d %s, want nothing but proves", seed, order, n, req)
				}
				proves += n
			}
			gotRes, err = rewrite.ReduceOrderCtx(ctx, order, cons)
			if err != nil {
				t.Fatalf("seed %d: remote reduce: %v", seed, err)
			}
			if !gotRes.Reduced.Equal(wantRes.Reduced) {
				t.Fatalf("seed %d: reduce %v: remote %v != local %v",
					seed, order, gotRes.Reduced, wantRes.Reduced)
			}
			// And the daemon-side /rewrite endpoint agrees with both.
			rw, err := c.Rewrite(ctx, schema, order.String())
			if err != nil {
				t.Fatalf("seed %d: wire rewrite: %v", seed, err)
			}
			if rw.Reduced != wantRes.Reduced.String() {
				t.Fatalf("seed %d: /rewrite %v: %s != %s",
					seed, order, rw.Reduced, wantRes.Reduced)
			}
		}
	}
	if proves == 0 {
		t.Fatal("Client.ReduceOrder never asked the daemon anything")
	}
}
