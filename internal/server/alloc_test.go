package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odlib/internal/catalog"
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
	tel := NewTelemetry()
	pool := prover.NewPool(2)
	rt, err := router.Open(router.Options{
		Catalog:   tel.CatalogOptions(pool),
		Telemetry: tel.RouterTelemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tel.ObserveRouter(rt, pool)
	srv := New(rt, WithTelemetry(tel))
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
