package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"odlib/internal/catalog"
	"odlib/internal/core"
)

// BenchmarkDiscoverLoopback is BenchmarkDiscoverRequest over a real
// connection: each bench body POSTed through httptest.NewServer on one
// keep-alive loopback connection, its NDJSON read up to the summary line. It
// is the only in-process number that pays what bench/'s discover-date
// workload pays around the handler — a request context that can be
// cancelled, a flush that writes to a socket, the client reading the stream —
// where httptest.ResponseRecorder pays none of it.
func BenchmarkDiscoverLoopback(b *testing.B) {
	srv, _ := daemonHandler(b)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	br := bufio.NewReaderSize(nil, 64<<10)
	for name, body := range benchBodies(b) {
		b.Run(name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			post := func() {
				rd.Reset(body)
				resp, err := hc.Post(ts.URL+"/discover", "application/json", rd)
				if err != nil {
					b.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("discover %s = %s", name, resp.Status)
				}
				br.Reset(resp.Body)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						b.Fatalf("discover %s: the stream ended without a summary line: %v", name, err)
					}
					if bytes.Contains(line, []byte(`"stats":`)) {
						break
					}
				}
				// Drained, the connection goes back to the pool for the next post.
				if _, err := io.Copy(io.Discard, br); err != nil {
					b.Fatal(err)
				}
			}
			post() // dials the connection
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				post()
			}
		})
	}
}

// BenchmarkProveClosureHit is one POST /prove through ServeHTTP with
// telemetry on that the closure tier answers: the request decoded, the
// statement parsed, the shard routed, the closure looked up, the verdict
// encoded — the in-process price of what prove-hot mostly asks.
func BenchmarkProveClosureHit(b *testing.B) {
	srv, rt := daemonHandler(b)
	ods, err := core.ParseStatements("[a] -> [b]\n[b] -> [c]")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Declare("budget", ods); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"schema":"budget","statement":"[a] -> [c]"}`)
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/prove", rd)
	if err != nil {
		b.Fatal(err)
	}
	before, n := tierHits(rt, catalog.TierClosure), uint64(0)
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("prove = %d %s", rec.Code, rec.Body)
		}
		n++
	}
	if hits := tierHits(rt, catalog.TierClosure) - before; hits != n {
		b.Fatalf("%d proves, %d closure-tier hits", n, hits)
	}
}
