package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/router"
)

// TestProveAllocationBudget pins what one POST /prove allocates in the
// daemon when a verdict tier in front of the search answers it: the request
// decoded, the statement parsed, the shard routed, the tier chain descended,
// the answer (and a witness) encoded, and the telemetry observed — everything
// ServeHTTP runs with telemetry on. The request is built once and its body
// rewound, so its own parse is not counted; each call gets a fresh
// httptest.ResponseRecorder, whose recorder, header map and body buffer are.
// Allocation counts are deterministic, so unlike wall clock this is a gate.
//
// Measured on the change that set these budgets, with the count before it in
// parentheses: closure 30 (37), memo 33 (40), negative 45 with a
// two-attribute witness (71). The budgets
// allow four more. Under the race detector sync.Pool drops a quarter of its
// puts, so encoding/json re-allocates its encoder state now and then: the
// counts read 2 higher there, and the budgets allow eight more.
func TestProveAllocationBudget(t *testing.T) {
	srv, rt := daemonHandler(t)
	if _, err := rt.Declare("budget", append(mustParse(t, "[a] -> [b]"), mustParse(t, "[b] -> [c]")...)); err != nil {
		t.Fatal(err)
	}

	slack := 4.0
	if raceDetector {
		slack = 8
	}
	for _, tc := range []struct {
		tier      string
		statement string
		want      string // a fragment of the answer
		budget    float64
	}{
		{catalog.TierClosure, "[a] -> [c]", `"implied":true`, 30},
		{catalog.TierMemo, "[a] -> [a, c]", `"implied":true`, 33},
		{catalog.TierNegative, "[x, y] -> [y, x]", `"rows":[[0,0],[1,-1]]`, 45},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			body := []byte(`{"schema":"budget","statement":"` + tc.statement + `"}`)
			rd := bytes.NewReader(body)
			req, err := http.NewRequest(http.MethodPost, "/prove", rd)
			if err != nil {
				t.Fatal(err)
			}
			serve := func() *httptest.ResponseRecorder {
				rd.Reset(body)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				return rec
			}
			serve() // the memo and negative tiers answer from the second ask on
			before := tierHits(rt, tc.tier)
			if rec := serve(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), tc.want) {
				t.Fatalf("prove %s = %d %s, want 200 with %s", tc.statement, rec.Code, rec.Body, tc.want)
			}
			if hits := tierHits(rt, tc.tier) - before; hits != 1 {
				t.Fatalf("prove %s: %d hits on tier %s, want 1", tc.statement, hits, tc.tier)
			}
			allocs := testing.AllocsPerRun(200, func() { serve() })
			if allocs > tc.budget+slack {
				t.Errorf("prove %s (%s tier): %.0f allocations per request, budget %.0f + %.0f",
					tc.statement, tc.tier, allocs, tc.budget, slack)
			}
			t.Logf("%s tier: %.0f allocations per request", tc.tier, allocs)
		})
	}
}

// daemonHandler is the daemon's handler as odserve wires it — telemetry on,
// a prover pool for searches — over an in-memory router, to be driven
// through ServeHTTP in process.
func daemonHandler(tb testing.TB) (*Server, *router.Router) {
	tb.Helper()
	tel := NewTelemetry()
	pool := prover.NewPool(2)
	rt, err := router.Open(router.Options{
		Catalog:   tel.CatalogOptions(pool),
		Telemetry: tel.RouterTelemetry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rt.Close() })
	tel.ObserveRouter(rt, pool)
	return New(rt, WithTelemetry(tel), WithDiscoverPool(pool)), rt
}

// discoverCall returns a function that posts body to /discover through
// srv.ServeHTTP and returns the recorded response. The request is built once
// and its body rewound, so its own construction is not counted.
func discoverCall(tb testing.TB, srv *Server, body []byte) func() *httptest.ResponseRecorder {
	tb.Helper()
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/discover", rd)
	if err != nil {
		tb.Fatal(err)
	}
	return func() *httptest.ResponseRecorder {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
}

// perCall is what one call of f allocates, in allocations and bytes, averaged
// over runs calls after one that warms the pools, on one P (as
// testing.AllocsPerRun runs), where the discovery pipeline runs one worker.
func perCall(runs uint64, f func()) (allocs, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDiscoverAllocationBudget pins what one POST /discover allocates
// through ServeHTTP, with telemetry on, on the two bodies bench/'s
// discover-date workload posts: the body read, the rows decoded, the
// relation built and ranked, the pipeline run, the NDJSON written. One
// request first warms the free list of scratches — body buffer, integer
// cells, rank views, partition arrays, sort cache, run block — as a running
// daemon's is.
//
// Measured since the scratch keeps its sort cache whole: date 1826 x 7 162
// allocations and 14 KB (163 while it kept only the cache's table (240 and 21 KB while six sync.Pools held them; 2,740 and 175 KB
// before the discovery lattice was shared and each run's pruning state
// pooled; 3,341 and 475 KB before the body, cells and rank views were
// pooled), random 4000 x 6, which streams no OD line, 62 and 5 KB (63; 139
// and 12 KB; 1,040 and 49 KB; 1,394 and 443 KB). The budgets allow 60
// allocations and 25 KB more. Under the race detector encoding/json's
// sync.Pool forgets its encoder state now and then, about once per NDJSON
// line, so the counts read 179 to 185 and 64 to 67, 17 and 6 KB, and the
// budgets allow that reading plus the same slack: 82 allocations and 28 KB.
// (While the data plane was pooled the race counts read 420 to 465 and 260
// to 290, 530 to 1,200 KB, against 260 allocations and 1,500 KB of slack.)
func TestDiscoverAllocationBudget(t *testing.T) {
	srv, _ := daemonHandler(t)
	bodies := benchBodies(t)
	allocSlack, kbSlack := uint64(60), uint64(25)
	if raceDetector {
		allocSlack, kbSlack = 82, 28
	}
	for _, tc := range []struct {
		name       string
		allocs, kb uint64
	}{
		{"date1826x7", 162, 14},
		{"random4000x6", 62, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := discoverCall(t, srv, bodies[tc.name])
			if rec := serve(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"stats"`) {
				t.Fatalf("discover %s = %d %s, want 200 and a summary", tc.name, rec.Code, rec.Body)
			}
			allocs, size := perCall(5, func() { serve() })
			if allocs > tc.allocs+allocSlack {
				t.Errorf("discover %s: %d allocations per request, budget %d + %d", tc.name, allocs, tc.allocs, allocSlack)
			}
			if kb := size >> 10; kb > tc.kb+kbSlack {
				t.Errorf("discover %s: %d KB allocated per request, budget %d + %d", tc.name, kb, tc.kb, kbSlack)
			}
			t.Logf("%s: %d allocations, %d KB per request", tc.name, allocs, size>>10)
		})
	}
}

// TestDiscoverDeclaredLengthReservesNothing: a body that declares far more
// than it sends never costs what it declares — the buffer trusts a
// Content-Length only up to maxReserve and grows with the bytes that arrive.
// The test holds every scratch the free list keeps, so the request pays for a
// fresh buffer. Reading the declared length whole, a 40-byte body declaring
// 8 MB allocated 8,211 KB.
func TestDiscoverDeclaredLengthReservesNothing(t *testing.T) {
	srv, _ := daemonHandler(t)
	body := []byte(`{"attrs":["a","b"],"rows":[[1,2],[3,4]]}`)
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/discover", rd)
	if err != nil {
		t.Fatal(err)
	}
	var rec *httptest.ResponseRecorder
	cold := func(declared int64) uint64 {
		req.ContentLength = declared
		rd.Reset(body)
		rec = httptest.NewRecorder()
		// The free list keeps at most GOMAXPROCS scratches.
		held := make([]*core.Scratch, runtime.GOMAXPROCS(0))
		for i := range held {
			held[i] = core.TakeScratch()
		}
		defer func() {
			for _, sc := range held {
				sc.Release()
			}
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	honest, lying := cold(int64(len(body))), cold(8<<20)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"stats"`) {
		t.Fatalf("discover with a declared 8 MB = %d %s, want 200 and a summary", rec.Code, rec.Body)
	}
	if lying >= 1_000_000 {
		t.Fatalf("a %d-byte body declaring 8 MB allocated %d KB, want under 1 MB (%d KB when the length is honest)", len(body), lying>>10, honest>>10)
	}
	t.Logf("%d-byte body: %d KB declaring 8 MB, %d KB declaring its length", len(body), lying>>10, honest>>10)
}

// BenchmarkDiscoverRequest is one POST /discover of each bench body through
// ServeHTTP with telemetry on: what a request costs, where internal/discover's
// BenchmarkPipeline* price the pipeline alone and BenchmarkDiscoverDecode the
// decode.
func BenchmarkDiscoverRequest(b *testing.B) {
	srv, _ := daemonHandler(b)
	bodies := benchBodies(b)
	for _, name := range benchNames {
		body := bodies[name]
		b.Run(name, func(b *testing.B) {
			serve := discoverCall(b, srv, body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if rec := serve(); rec.Code != http.StatusOK {
					b.Fatalf("discover %s = %d %s", name, rec.Code, rec.Body)
				}
			}
		})
	}
}

// tierHits reads one tier's hit counter off the router's stats.
func tierHits(rt *router.Router, tier string) uint64 {
	tiers := rt.Stats()["budget"].Catalog.Tiers
	switch tier {
	case catalog.TierClosure:
		return tiers.Closure
	case catalog.TierMemo:
		return tiers.Memo
	case catalog.TierNegative:
		return tiers.Negative
	}
	return 0
}
