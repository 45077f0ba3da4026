package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/metrics"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
	"odlib/internal/router"
	"odlib/internal/store"
	"odlib/pkg/odclient"
)

// newTelemetryServer boots a fully instrumented daemon the way cmd/odserve
// wires it: telemetry first, hooks threaded into every layer, collectors
// installed after the router opens.
func newTelemetryServer(t *testing.T, dataDir string, st store.Options, backpressure int, opts ...Option) (*httptest.Server, *Telemetry, *router.Router, *prover.Pool) {
	t.Helper()
	tel := NewTelemetry()
	pool := prover.NewPool(4)
	st.Telemetry = tel.StoreTelemetry()
	rt, err := router.Open(router.Options{
		DataDir:              dataDir,
		Store:                st,
		Catalog:              tel.CatalogOptions(pool),
		BackpressureSegments: backpressure,
		Telemetry:            tel.RouterTelemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.ObserveRouter(rt, pool)
	ts := httptest.NewServer(New(rt, append([]Option{WithTelemetry(tel)}, opts...)...))
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return ts, tel, rt, pool
}

// scrape fetches and strictly parses /metrics.
func scrape(t *testing.T, ts *httptest.Server) map[string]*metrics.Family {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return fams
}

// sampleValue finds one sample by metric name and exact label pairs.
func sampleValue(fams map[string]*metrics.Family, fam, name string, labels map[string]string) (float64, bool) {
	f, ok := fams[fam]
	if !ok {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// TestMetricsEndToEnd drives mutation, prove and client traffic through an
// instrumented durable daemon and asserts the scrape carries every layer's
// series: all five verdict tiers as latency histograms, WAL commit+fsync
// latency, compaction lag, per-shard mutation/prove latency, HTTP request
// accounting, pool gauges, and the odclient flush-size histogram hooked into
// the same registry.
func TestMetricsEndToEnd(t *testing.T) {
	ts, tel, _, _ := newTelemetryServer(t, t.TempDir(), store.Options{Fsync: true}, 0)

	// Traffic covering the tier chain: a declared OD re-proved (closure), a
	// prefix-trivial statement (trivial), a fresh refutable question
	// (search), and the same question again (negative-closure hit).
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "sales", "statements": []string{"[x] -> [y]"},
	}, nil); code != 200 {
		t.Fatalf("declare = %d", code)
	}
	for _, stmt := range []string{
		"[x] -> [y]",    // closure
		"[x, y] -> [x]", // trivial
		"[q] -> [p]",    // search (refuted)
		"[q] -> [p]",    // negative
		"[x, u] -> [y]", // search
		"[x, u] -> [y]", // memo or negative, depending on the verdict
	} {
		if code := call(t, ts, "POST", "/prove", map[string]any{
			"schema": "sales", "statement": stmt,
		}, nil); code != 200 {
			t.Fatalf("prove %q = %d", stmt, code)
		}
	}

	// A pipelined odclient sharing the registry: its flushes must land in
	// the odclient_* series.
	cl, err := odclient.New(ts.URL,
		odclient.WithHTTPClient(ts.Client()),
		odclient.WithPipelining(2*time.Millisecond, 64),
		odclient.WithMetrics(tel.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Prove(t.Context(), "sales", "[x] -> [y]"); err != nil {
				t.Errorf("client prove: %v", err)
			}
		}()
	}
	wg.Wait()
	cl.Close()

	fams := scrape(t, ts)

	// All five verdict tiers present as histogram series, even tiers with
	// zero traffic.
	for _, tier := range []string{"trivial", "closure", "negative", "memo", "search"} {
		count, ok := sampleValue(fams, "odserve_verdict_tier_seconds",
			"odserve_verdict_tier_seconds_count", map[string]string{"tier": tier})
		if !ok {
			t.Errorf("tier %q missing from odserve_verdict_tier_seconds", tier)
			continue
		}
		switch tier {
		case "trivial", "closure", "negative", "search":
			if count < 1 {
				t.Errorf("tier %q count = %v, want >= 1", tier, count)
			}
		}
	}

	// Layer coverage: WAL group-commit and fsync latency observed (durable
	// shard with fsync on), compaction lag gauges present, per-shard
	// latency histograms fed, HTTP accounting live, pool sized.
	checks := []struct {
		fam, name string
		labels    map[string]string
		min       float64
	}{
		{"odserve_wal_commit_seconds", "odserve_wal_commit_seconds_count", nil, 1},
		{"odserve_wal_fsync_seconds", "odserve_wal_fsync_seconds_count", nil, 1},
		{"odserve_wal_commit_batch_records", "odserve_wal_commit_batch_records_count", nil, 1},
		{"odserve_compaction_lag_segments", "odserve_compaction_lag_segments", map[string]string{"shard": "sales"}, 0},
		{"odserve_compaction_lag_records", "odserve_compaction_lag_records", map[string]string{"shard": "sales"}, 0},
		{"odserve_mutation_seconds", "odserve_mutation_seconds_count", map[string]string{"shard": "sales"}, 1},
		{"odserve_prove_seconds", "odserve_prove_seconds_count", map[string]string{"shard": "sales"}, 1},
		{"odserve_http_request_seconds", "odserve_http_request_seconds_count", map[string]string{"route": "/prove"}, 1},
		{"odserve_http_requests_total", "odserve_http_requests_total", map[string]string{"route": "/prove", "method": "POST", "code": "200"}, 1},
		{"odserve_verdict_tier_hits_total", "odserve_verdict_tier_hits_total", map[string]string{"shard": "sales", "tier": "search"}, 1},
		{"odserve_searches_total", "odserve_searches_total", map[string]string{"shard": "sales"}, 1},
		{"odserve_declared_ods", "odserve_declared_ods", map[string]string{"shard": "sales"}, 1},
		{"odserve_search_pool_capacity", "odserve_search_pool_capacity", nil, 4},
		{"odclient_flush_batches_total", "odclient_flush_batches_total", nil, 1},
		{"odclient_flush_statements", "odclient_flush_statements_count", nil, 1},
		{"odclient_proves_total", "odclient_proves_total", nil, 8},
	}
	for _, c := range checks {
		v, ok := sampleValue(fams, c.fam, c.name, c.labels)
		if !ok {
			t.Errorf("series %s%v missing", c.name, c.labels)
			continue
		}
		if v < c.min {
			t.Errorf("%s%v = %v, want >= %v", c.name, c.labels, v, c.min)
		}
	}

	// The only request running during the scrape is the scrape itself, so
	// the in-flight gauge reads exactly 1.
	if v, ok := sampleValue(fams, "odserve_http_inflight_requests", "odserve_http_inflight_requests", nil); !ok || v != 1 {
		t.Errorf("inflight = %v (present=%v), want 1 (the scrape itself)", v, ok)
	}
}

// TestDefaultShardAndRouteLabels: the default shard's series carry the
// shard="@default" label, its directory and its /segments key the same alias,
// and the route label is the path of the pattern the mux matched — the
// templated path for a parameterised route, "other" for a request no pattern
// matched, a 405 on a served path included.
func TestDefaultShardAndRouteLabels(t *testing.T) {
	dir := t.TempDir()
	ts, _, _, _ := newTelemetryServer(t, dir, store.Options{}, 0)
	if code := call(t, ts, "POST", "/ods", map[string]any{"statements": []string{"[x] -> [y]"}}, nil); code != 200 {
		t.Fatalf("declare = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "@default")); err != nil {
		t.Fatalf("default shard directory: %v", err)
	}
	var feed struct {
		Shards map[string]router.ShardSegments `json:"shards"`
	}
	if code := call(t, ts, "GET", "/segments", nil, &feed); code != 200 {
		t.Fatalf("GET /segments = %d", code)
	}
	if _, ok := feed.Shards["@default"]; !ok {
		t.Fatalf("default shard not keyed @default: %v", feed.Shards)
	}
	if code := call(t, ts, "GET", "/segments/@default/1", nil, nil); code != 200 {
		t.Fatalf("GET /segments/@default/1 = %d", code)
	}
	if code := call(t, ts, "PUT", "/ods", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /ods = %d, want 405", code)
	}
	if code := call(t, ts, "GET", "/nowhere", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /nowhere = %d, want 404", code)
	}

	fams := scrape(t, ts)
	for _, c := range []struct {
		fam, name string
		labels    map[string]string
	}{
		{"odserve_mutation_seconds", "odserve_mutation_seconds_count", map[string]string{"shard": "@default"}},
		{"odserve_declared_ods", "odserve_declared_ods", map[string]string{"shard": "@default"}},
		{"odserve_http_requests_total", "odserve_http_requests_total", map[string]string{"route": "/ods", "method": "POST", "code": "200"}},
		{"odserve_http_requests_total", "odserve_http_requests_total", map[string]string{"route": "/segments", "method": "GET", "code": "200"}},
		{"odserve_http_requests_total", "odserve_http_requests_total", map[string]string{"route": "/segments/{shard}/{item}", "method": "GET", "code": "200"}},
		{"odserve_http_requests_total", "odserve_http_requests_total", map[string]string{"route": "other", "method": "PUT", "code": "405"}},
		{"odserve_http_requests_total", "odserve_http_requests_total", map[string]string{"route": "other", "method": "GET", "code": "404"}},
	} {
		if v, ok := sampleValue(fams, c.fam, c.name, c.labels); !ok || v != 1 {
			t.Errorf("%s%v = %v (present=%v), want 1", c.name, c.labels, v, ok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = routeLabel("GET /segments/{shard}/{item}") }); n != 0 {
		t.Errorf("routeLabel allocates %v times per call, want 0", n)
	}
}

// TestRewriteMovesTierTelemetry: /rewrite's implication questions descend
// the verdict tiers like /prove's, so one rewrite on a warmed shard — every
// answer already sits in front of the search — moves /healthz's tiers and
// the per-tier latency histogram by the same amount, and no search runs.
func TestRewriteMovesTierTelemetry(t *testing.T) {
	ts, _, _, _ := newTelemetryServer(t, "", store.Options{}, 0)
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "sales", "statements": []string{"[month] -> [quarter]"},
	}, nil); code != 200 {
		t.Fatalf("declare = %d", code)
	}
	rewrite := func() {
		t.Helper()
		var rw rewriteResponse
		if code := call(t, ts, "POST", "/rewrite", map[string]string{
			"schema": "sales", "order": "[year, quarter, month]",
		}, &rw); code != 200 || rw.Reduced != "[year, month]" {
			t.Fatalf("rewrite = %d %+v", code, rw)
		}
	}
	// observed returns the shard's tier hits as /healthz reports them and
	// the histogram's observation count summed over the five tiers.
	observed := func() (catalog.TierStats, float64) {
		t.Helper()
		var h healthz
		if code := call(t, ts, "GET", "/healthz", nil, &h); code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		fams := scrape(t, ts)
		var timed float64
		for _, tier := range []string{"trivial", "closure", "negative", "memo", "search"} {
			v, ok := sampleValue(fams, "odserve_verdict_tier_seconds",
				"odserve_verdict_tier_seconds_count", map[string]string{"tier": tier})
			if !ok {
				t.Fatalf("tier %q missing from odserve_verdict_tier_seconds", tier)
			}
			timed += v
		}
		return h.Shards["sales"].Catalog.Tiers, timed
	}
	sum := func(s catalog.TierStats) uint64 { return s.Trivial + s.Closure + s.Negative + s.Memo + s.Search }

	rewrite() // warm-up
	before, timedBefore := observed()
	rewrite()
	after, timedAfter := observed()

	asked := sum(after) - sum(before)
	if asked == 0 {
		t.Errorf("a rewrite left /healthz tiers flat: %+v", after)
	}
	if after.Search != before.Search {
		t.Errorf("a warmed-up rewrite searched %d times", after.Search-before.Search)
	}
	if got := timedAfter - timedBefore; got != float64(asked) {
		t.Errorf("odserve_verdict_tier_seconds_count moved by %v for %d questions", got, asked)
	}
}

// seamCounter is a rewrite.Oracle over a local prover that counts what it is
// asked: a reduction's questions, observed at the seam.
type seamCounter struct {
	p     *prover.Prover
	asked uint64
}

func (o *seamCounter) OrdersBy(ctx context.Context, x, y core.List) (bool, error) {
	o.asked++
	return o.p.ImpliesCtx(ctx, core.NewOD(x, y))
}

// TestRewriteGroupByMeetsTheGuard: a "groupBy" is a run of FD-form chain
// questions like any other, so it is counted, guarded and timed out like
// them — a reduction that asks N questions moves /healthz tiers by N, one
// whose question entangles more than -maxattrs attributes answers the 422
// body /prove gives that question, and a -prove-timeout expiry answers what
// "order" answers.
func TestRewriteGroupByMeetsTheGuard(t *testing.T) {
	boot := func(maxAttrs int, opts ...Option) *httptest.Server {
		t.Helper()
		return newTestServer(t, router.Options{Catalog: []catalog.Option{catalog.WithMaxAttrs(maxAttrs)}}, opts...)
	}
	post := func(ts *httptest.Server, path string, body map[string]any) (int, string) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	declared := []string{"[month] -> [quarter]", "[quarter, month] -> [season]"}
	const group = "[year, season, quarter, month, day]"

	// Counted: N questions at the seam are N tier hits, asked cold or warm.
	ods, err := core.ParseStatements(strings.Join(declared, "; "))
	if err != nil {
		t.Fatal(err)
	}
	seam := &seamCounter{p: prover.New(ods)}
	list, _ := core.ParseList(group)
	want, err := rewrite.ReduceGroupBy(context.Background(), list, rewrite.NewConstraints(nil, ods).UseOracle(seam))
	if err != nil || len(want.Steps) != 2 {
		t.Fatalf("fixture: reduced to %v by %v (%v), want two eliminations", want.Reduced, want.Steps, err)
	}
	ts := boot(14)
	if code, body := post(ts, "/ods", map[string]any{"statements": declared}); code != 200 {
		t.Fatalf("declare = %d %s", code, body)
	}
	tierSum := func() uint64 {
		t.Helper()
		var h healthz
		if code := call(t, ts, "GET", "/healthz", nil, &h); code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		s := h.Shards[""].Catalog.Tiers
		return s.Trivial + s.Closure + s.Negative + s.Memo + s.Search
	}
	for _, step := range []string{"cold", "warm"} {
		before := tierSum()
		var rw rewriteResponse
		if code := call(t, ts, "POST", "/rewrite", map[string]string{"groupBy": group}, &rw); code != 200 ||
			rw.Reduced != want.Reduced.String() || len(rw.Steps) != len(want.Steps) {
			t.Fatalf("%s groupBy = %d %+v, want %v", step, code, rw, want.Reduced)
		}
		if d := tierSum() - before; d != seam.asked {
			t.Errorf("%s groupBy: %d tier hits for a reduction of %d questions", step, d, seam.asked)
		}
	}

	// Guarded: the first question of either reduction of [a, b, c, d] is
	// [a, b, c] -> [a, b, c, d], four attributes against a limit of three.
	ts = boot(3)
	wantCode, wantBody := post(ts, "/prove", map[string]any{"statement": "[a, b, c] -> [a, b, c, d]"})
	if wantCode != http.StatusUnprocessableEntity {
		t.Fatalf("prove past the guard = %d %s", wantCode, wantBody)
	}
	for _, field := range []string{"groupBy", "order"} {
		if code, body := post(ts, "/rewrite", map[string]any{field: "[a, b, c, d]"}); code != wantCode || body != wantBody {
			t.Errorf("%s past the guard = %d %s, want /prove's %d %s", field, code, body, wantCode, wantBody)
		}
	}

	// Timed out: a deadline that has passed before the first question
	// reaches the search fails it there, the same way for both lists.
	ts = boot(14, WithProveTimeout(time.Nanosecond))
	if code, body := post(ts, "/ods", map[string]any{"statements": declared}); code != 200 {
		t.Fatalf("declare = %d %s", code, body)
	}
	wantCode, wantBody = post(ts, "/rewrite", map[string]any{"order": group})
	if wantCode != http.StatusGatewayTimeout || !strings.Contains(wantBody, "timed out") {
		t.Fatalf("order past the deadline = %d %s, want 504", wantCode, wantBody)
	}
	if code, body := post(ts, "/rewrite", map[string]any{"groupBy": group}); code != wantCode || body != wantBody {
		t.Errorf("groupBy past the deadline = %d %s, want order's %d %s", code, body, wantCode, wantBody)
	}
}

// TestMetricsScrapeUnderTraffic hammers an instrumented daemon with
// concurrent mutations and proves while scraping /metrics the whole time:
// every scrape must parse strictly (the parser enforces bucket monotonicity
// and count/+Inf agreement per scrape) and the request counter must be
// monotonic across scrapes. Run with -race this is the exposition-layer
// torture test over real HTTP.
func TestMetricsScrapeUnderTraffic(t *testing.T) {
	ts, _, _, _ := newTelemetryServer(t, t.TempDir(), store.Options{Fsync: false}, 0)

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				call(t, ts, "POST", "/ods", map[string]any{
					"schema": "load", "statements": []string{fmt.Sprintf("[g%d_a%d] -> [g%d_b%d]", g, i, g, i)},
				}, nil)
				call(t, ts, "POST", "/prove", map[string]any{
					"schema": "load", "statement": fmt.Sprintf("[g%d_a%d] -> [g%d_b%d]", g, i, g, i),
				}, nil)
			}
		}(g)
	}

	last := -1.0
	for i := 0; i < 25; i++ {
		fams := scrape(t, ts)
		total := 0.0
		if f, ok := fams["odserve_http_requests_total"]; ok {
			for _, s := range f.Samples {
				total += s.Value
			}
		}
		if total < last {
			t.Fatalf("scrape %d: request counter went backwards: %v -> %v", i, last, total)
		}
		last = total
	}
	close(stop)
	traffic.Wait()
}

// TestBackpressure429 pins the compactor with the store's stall hook, drives
// declares until sealed segments pass the threshold, and asserts the
// admission-control contract: 429 with Retry-After and a JSON error body,
// proves and reads still served, and — once the compactor resumes and a
// snapshot retires the backlog — declares admitted again.
func TestBackpressure429(t *testing.T) {
	ts, tel, rt, _ := newTelemetryServer(t, t.TempDir(),
		store.Options{Fsync: false, SnapshotEvery: 0, SegmentRecords: 1}, 2)

	declare := func(stmt string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/ods", "application/json",
			strings.NewReader(fmt.Sprintf(`{"schema":"hot","statements":[%q]}`, stmt)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// First declare materializes the shard; then the compactor is pinned so
	// lag can only grow.
	resp := declare("[a0] -> [b0]")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("first declare = %d", resp.StatusCode)
	}
	resume := rt.ShardStore("hot").StallCompaction()
	defer resume()

	var rejected *http.Response
	for i := 1; i <= 50 && rejected == nil; i++ {
		resp := declare(fmt.Sprintf("[a%d] -> [b%d]", i, i))
		switch resp.StatusCode {
		case 200:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		case http.StatusTooManyRequests:
			rejected = resp
		default:
			t.Fatalf("declare %d = %d", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("no 429 after 50 declares with a pinned compactor and threshold 2")
	}
	defer rejected.Body.Close()
	if ra := rejected.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After")
	}
	if ct := rejected.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 Content-Type = %q, want application/json", ct)
	}
	body, _ := io.ReadAll(rejected.Body)
	if !strings.Contains(string(body), "backpressure") {
		t.Errorf("429 body %q does not name backpressure", body)
	}

	// Reads and proves are never shed.
	if code := call(t, ts, "POST", "/prove", map[string]any{
		"schema": "hot", "statement": "[a0] -> [b0]",
	}, nil); code != 200 {
		t.Fatalf("prove under backpressure = %d", code)
	}
	if code := call(t, ts, "GET", "/ods?schema=hot", nil, nil); code != 200 {
		t.Fatalf("list under backpressure = %d", code)
	}

	// The rejection tally made it to the registry.
	fams := scrape(t, ts)
	if v, ok := sampleValue(fams, "odserve_backpressure_rejections_total",
		"odserve_backpressure_rejections_total", map[string]string{"shard": "hot"}); !ok || v < 1 {
		t.Errorf("rejections counter = %v (present=%v), want >= 1", v, ok)
	}
	_ = tel

	// Recovery: resume the compactor, compact synchronously, declare again.
	resume()
	if code := call(t, ts, "POST", "/snapshot", map[string]any{"schema": "hot"}, nil); code != 200 {
		t.Fatalf("snapshot after resume = %d", code)
	}
	resp = declare("[afterglow] -> [dawn]")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("declare after recovery = %d", resp.StatusCode)
	}
}

// TestHealthzDegradedBodyShape is the regression test for the degraded-path
// response contract: a 503 /healthz must still carry Content-Type:
// application/json and the FULL per-shard stats body — catalog counters,
// store counters, and the reason string — not a bare status line.
func TestHealthzDegradedBodyShape(t *testing.T) {
	rt, err := router.Open(router.Options{DataDir: t.TempDir(), Store: store.Options{Fsync: true}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rt))
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "frail", "statements": []string{"[a] -> [b]"},
	}, nil); code != 200 {
		t.Fatalf("declare = %d", code)
	}

	// Healthy path first: JSON content type on 200.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("healthy /healthz = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	rt.ShardStore("frail").FailWAL(fmt.Errorf("drill: disk died"))
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("503 Content-Type = %q, want application/json", ct)
	}
	var health healthz
	if err := jsonDecode(resp.Body, &health); err != nil {
		t.Fatalf("503 body is not the healthz document: %v", err)
	}
	if health.OK {
		t.Error("503 body says ok=true")
	}
	sh, ok := health.Shards["frail"]
	if !ok {
		t.Fatal("503 body lost the per-shard stats")
	}
	if sh.OK || !strings.Contains(sh.Reason, "wal") {
		t.Errorf("degraded shard verdict = %+v, want ok=false with a wal reason", sh)
	}
	if sh.Catalog.Declared != 1 {
		t.Errorf("503 body lost catalog stats: %+v", sh.Catalog)
	}
	if sh.Store == nil || sh.Store.WALError == "" {
		t.Errorf("503 body lost store stats: %+v", sh.Store)
	}
	if health.Totals.Declared != 1 {
		t.Errorf("503 body lost totals: %+v", health.Totals)
	}
}

// jsonDecode is a tiny helper so the degraded-path test can decode from a
// raw response body it also inspected for headers.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// TestAccessLog asserts the structured per-request line: method, path,
// status, shard, tier and duration all present for a prove.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))

	ts, _, _, _ := newTelemetryServer(t, "", store.Options{}, 0, WithAccessLog(logger))
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "logged", "statements": []string{"[m] -> [n]"},
	}, nil); code != 200 {
		t.Fatalf("declare = %d", code)
	}
	if code := call(t, ts, "POST", "/prove", map[string]any{
		"schema": "logged", "statement": "[m] -> [n]",
	}, nil); code != 200 {
		t.Fatalf("prove = %d", code)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var proveLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "path=/prove") {
			proveLine = line
		}
	}
	if proveLine == "" {
		t.Fatalf("no access-log line for /prove in:\n%s", out)
	}
	for _, want := range []string{"method=POST", "status=200", "shard=logged", "tier=closure", "duration="} {
		if !strings.Contains(proveLine, want) {
			t.Errorf("access log line %q missing %q", proveLine, want)
		}
	}
	if !strings.Contains(out, "path=/ods") {
		t.Errorf("no access-log line for the declare in:\n%s", out)
	}
}

// lockedWriter serializes the slog handler's writes against the test's read.
type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

var _ = catalog.TierSearch // tier names used in string literals above match these constants
