package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/router"
)

// heavyChainServer boots an ephemeral daemon holding a 15-link transitive
// chain c00 ↦ … ↦ c14 under the context attribute zz — 16 attributes, the
// attribute guard raised to match. zz leads both sides of every link and
// sorts last, so the search assigns it last and propagation can decide no
// link on any shorter prefix (a plain chain falls in a few hundred nodes).
// Span questions [zz, ci] -> [zz, cj] sit in the eagerly maintained closure
// and answer in O(1), so the heavy questions here are order-compatibility
// forms [zz, ci] ~ [zz, cj]: implied, outside the closure, and each
// direction must exhaust the ~3^16-node sign tree — the better part of a
// second of search, long enough to cancel mid-flight even on a loaded
// single-core box.
func heavyChainServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	rt, err := router.Open(router.Options{
		Catalog: []catalog.Option{catalog.WithWorkers(2), catalog.WithMaxAttrs(16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	ts := httptest.NewServer(New(rt, opts...))
	t.Cleanup(ts.Close)

	var decl []string
	for i := 0; i+1 < 15; i++ {
		decl = append(decl, fmt.Sprintf("[zz, c%02d] -> [zz, c%02d]", i, i+1))
	}
	body, _ := json.Marshal(map[string]any{"declare": decl})
	resp, err := ts.Client().Post(ts.URL+"/ods/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("declare: status %d", resp.StatusCode)
	}
	return ts
}

// healthTotals scrapes the /healthz search counters.
func healthTotals(t *testing.T, ts *httptest.Server) (nodes, searches, cancelled uint64) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Totals struct {
			Nodes     uint64 `json:"searchNodes"`
			Searches  uint64 `json:"searches"`
			Cancelled uint64 `json:"cancelledSearches"`
		} `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Totals.Nodes, out.Totals.Searches, out.Totals.Cancelled
}

// TestProveClientDisconnectStopsSearch fires the search-exhausting span
// question, hangs up mid-search, and asserts via the node counters that the
// in-flight search actually died: the cancellation is counted, and the node
// total goes quiet instead of climbing on toward the full enumeration.
func TestProveClientDisconnectStopsSearch(t *testing.T) {
	ts := heavyChainServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]string{"statement": "[zz, c00] ~ [zz, c14]"})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/prove", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the search is demonstrably in flight, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, searches, _ := healthTotals(t, ts); searches > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client should observe its own cancellation, got %v", err)
	}

	// The abort must be counted, and the node counter must go quiet.
	var cancelled uint64
	for time.Now().Before(deadline) {
		if _, _, c := healthTotals(t, ts); c > 0 {
			cancelled = c
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cancelled == 0 {
		t.Fatal("cancelled search never counted")
	}
	n1, _, _ := healthTotals(t, ts)
	time.Sleep(50 * time.Millisecond)
	n2, _, _ := healthTotals(t, ts)
	if n2 != n1 {
		t.Fatalf("search nodes still climbing after disconnect: %d -> %d", n1, n2)
	}
}

// TestProveTimeout bounds the same heavy question server-side: the response
// must be 504 with the timeout surfaced, not a hung connection.
func TestProveTimeout(t *testing.T) {
	ts := heavyChainServer(t, WithProveTimeout(5*time.Millisecond))
	body, _ := json.Marshal(map[string]string{"statement": "[zz, c00] ~ [zz, c14]"})
	resp, err := ts.Client().Post(ts.URL+"/prove", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Skip("search finished inside the deadline on this box")
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Error, "timed out") {
		t.Fatalf("error %q should mention the timeout", out.Error)
	}
	// The catalog must remain fully usable afterwards.
	if _, searches, _ := healthTotals(t, ts); searches == 0 {
		t.Fatal("timeout without any search")
	}
}

// TestBatchProveServerTimeout: a server-side prove deadline expiring
// mid-batch must answer 504 for the whole batch — not a 200 whose results
// mix real verdicts with deadline errors dressed as statement faults.
func TestBatchProveServerTimeout(t *testing.T) {
	ts := heavyChainServer(t, WithProveTimeout(10*time.Millisecond))
	stmts := []string{"[zz, c00] ~ [zz, c14]", "[zz, c01] ~ [zz, c13]"}
	body, _ := json.Marshal(map[string]any{"statements": stmts})
	resp, err := ts.Client().Post(ts.URL+"/prove/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Skip("batch finished inside the deadline on this box")
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestBatchProveCancellation: a /prove/batch whose client disconnects
// drains instead of deciding the remaining statements.
func TestBatchProveCancellation(t *testing.T) {
	ts := heavyChainServer(t)
	stmts := []string{"[zz, c00] ~ [zz, c14]", "[zz, c01] ~ [zz, c13]", "[zz, c02] ~ [zz, c12]"}
	body, _ := json.Marshal(map[string]any{"statements": stmts})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/prove/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Skip("batch finished inside the deadline on this box")
	}
	// Counters must settle once the pool unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, c := healthTotals(t, ts); c > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cancelled batch never counted")
}
