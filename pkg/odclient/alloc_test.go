package odclient

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"testing"
)

// cannedTransport answers every request with one fixed 200 body, draining
// the request first; it is the daemon with the network and the server taken
// away, so what a round trip allocates is the client's own work plus the
// response this transport builds.
type cannedTransport struct{ reply []byte }

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(c.reply)),
		Request:    req,
	}, nil
}

// TestClientProveAllocations pins what one Client.Prove allocates with
// every amortiser off (no coalescing, pipelining, cache or retries), against
// a transport that answers at once: statement parse and cache key, request
// marshal, net/http's request, the response this transport builds and the
// answer's decode. Allocation counts are
// deterministic, so unlike wall clock this is a gate.
//
// Measured on the change that set these budgets, with the count before it in
// parentheses: an implied answer 42 (50), a refuted one with a two-attribute
// witness 64 (74). The budgets allow four more; under the race detector,
// whose sync.Pool drops a quarter of its puts, eight more.
func TestClientProveAllocations(t *testing.T) {
	slack := 4.0
	if raceDetector {
		slack = 8
	}
	for _, tc := range []struct {
		name    string
		reply   string
		implied bool
		budget  float64
	}{
		{"implied", `{"statement":"[s0_c03_a02] -> [s0_c03_a05]","schema":"s0","implied":true,"generation":33}` + "\n", true, 42},
		{"refuted", `{"statement":"[s0_c03_a02] -> [s0_c03_a05]","schema":"s0","implied":false,"generation":33,` +
			`"witness":{"pattern":"s0_c03_a02< s0_c03_a05>","signs":{"s0_c03_a02":"<","s0_c03_a05":">"},` +
			`"rows":[[0,0],[1,-1]],"attrs":["s0_c03_a02","s0_c03_a05"]}}` + "\n", false, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New("http://odserve.invalid", WithCoalescing(false),
				WithHTTPClient(&http.Client{Transport: cannedTransport{[]byte(tc.reply)}}))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			prove := func() {
				v, err := c.Prove(ctx, "s0", "[s0_c03_a02] -> [s0_c03_a05]")
				if err != nil || v.Implied != tc.implied || v.Generation != 33 || (v.Witness == nil) == !tc.implied {
					t.Fatalf("Prove = %+v, %v", v, err)
				}
			}
			prove()
			allocs := testing.AllocsPerRun(200, prove)
			if allocs > tc.budget+slack {
				t.Errorf("%s prove: %.0f allocations, budget %.0f + %.0f", tc.name, allocs, tc.budget, slack)
			}
			t.Logf("%s prove: %.0f allocations", tc.name, allocs)
		})
	}
}

// TestRequestBodiesMatchMapEncoding holds each request body type to the
// bytes the map it replaced marshalled to — the wire must not move — on
// strings that need escaping and on nil and empty lists.
func TestRequestBodiesMatchMapEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "<", ">", "&", `"`, `\`, "é", " ", " ", "[", "]", "->", "\x01"}
	str := func() string {
		var b []byte
		for n := rng.Intn(6); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	list := func() []string {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = str()
		}
		return out
	}
	same := func(got, want any) {
		t.Helper()
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%T marshals to %s, the map to %s", got, g, w)
		}
	}
	for i := 0; i < 500; i++ {
		schema, stmt, order := str(), str(), str()
		same(proveBody{Schema: schema, Statement: stmt}, map[string]string{"schema": schema, "statement": stmt})
		stmts := list()
		same(proveBatchBody{Schema: schema, Statements: stmts}, map[string]any{"schema": schema, "statements": stmts})
		declare, remove := list(), list()
		same(mutateBody{Declare: declare, Remove: remove, Schema: schema},
			map[string]any{"schema": schema, "declare": declare, "remove": remove})
		same(rewriteOrderBody{Order: order, Schema: schema}, map[string]string{"schema": schema, "order": order})
		same(rewriteGroupBody{GroupBy: order, Schema: schema}, map[string]string{"schema": schema, "groupBy": order})
	}
}
