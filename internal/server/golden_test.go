package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"odlib/internal/prover"
	"odlib/internal/router"
)

// TestDiscoverGoldenNDJSON serves both bodies of bench/'s discover-date
// workload three times each, at one worker and at GOMAXPROCS, and holds every
// response to the bytes checked in under testdata/discover: the OD lines in
// their order and the stats line, counter for counter. A change to how
// discovery decodes, sorts, refines or scans may not move a byte; a change
// that means to move one regenerates the files and says why.
func TestDiscoverGoldenNDJSON(t *testing.T) {
	bodies := benchBodies(t)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		srv := goldenHandler(t, workers)
		for _, name := range benchNames {
			want, err := os.ReadFile(filepath.Join("testdata", "discover", name+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			serve := discoverCall(t, srv, bodies[name])
			for i := range 3 {
				rec := serve()
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("%s, %d workers, request %d: %d\n%s\nwant\n%s", name, workers, i, rec.Code, rec.Body, want)
				}
			}
		}
	}
}

// goldenHandler is daemonHandler with the discovery worker count fixed.
func goldenHandler(tb testing.TB, workers int) *Server {
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
	return New(rt, WithTelemetry(tel), WithDiscoverPool(pool), WithDiscoverWorkers(workers))
}
