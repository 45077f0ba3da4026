package odclient

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkLoopbackFloor measures Client.Prove against a daemon that does
// nothing: the handler drains the request and writes one canned /prove
// reply. One keep-alive loopback connection and every client-side amortiser
// off (no coalescing, pipelining, cache or retries), which is how bench/'s
// sessions talk to the stack. What is left is statement parse, JSON both
// ways and net/http on both ends — the floor under every end-to-end prove
// number. ARCHITECTURE.md's tier-chain section sets it beside prove-hot.
func BenchmarkLoopbackFloor(b *testing.B) {
	const statement = "[s0_c03_a02] -> [s0_c03_a05]"
	const reply = `{"statement":"` + statement + `","schema":"s0","implied":true,"generation":33}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Errors on either copy surface as a failed Prove in the loop.
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, reply)
	}))
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	c, err := New(ts.URL, WithHTTPClient(hc), WithCoalescing(false))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	prove := func() {
		v, err := c.Prove(ctx, "s0", statement)
		if err != nil || !v.Implied || v.Generation != 33 {
			b.Fatalf("Prove = %+v, %v", v, err)
		}
	}
	prove() // dials the connection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prove()
	}
}
