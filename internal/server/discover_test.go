package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"odlib/internal/catalog"
	"odlib/internal/metrics"
	"odlib/internal/router"
	"odlib/internal/store"
)

// postNDJSON posts a JSON body and returns the status, content type and the
// decoded NDJSON lines of the response.
func postNDJSON(t *testing.T, url string, body any) (int, string, []map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), lines
}

// TestDiscoverEndpoint drives a full discovery run through the daemon: the
// response must stream NDJSON od lines followed by one summary, the
// discovered ODs must land in the target shard via the batch-declare path,
// and the discovery counters must appear on a strictly parsed /metrics
// scrape afterwards.
func TestDiscoverEndpoint(t *testing.T) {
	ts, _, rt, _ := newTelemetryServer(t, "", store.Options{}, 0,
		WithDiscoverWorkers(4))

	// A small date hierarchy: month determines quarter, quarter determines
	// half, and era is constant.
	req := map[string]any{
		"schema": "cal",
		"attrs":  []string{"month", "quarter", "half", "era"},
		"rows": [][]any{
			{1, 1, 1, 9}, {2, 1, 1, 9}, {3, 1, 1, 9},
			{4, 2, 1, 9}, {5, 2, 1, 9}, {6, 2, 1, 9},
			{7, 3, 2, 9}, {8, 3, 2, 9}, {10, 4, 2, 9},
		},
		"maxLHS":  1,
		"maxRHS":  1,
		"declare": true,
	}
	code, ct, lines := postNDJSON(t, ts.URL+"/discover", req)
	if code != 200 {
		t.Fatalf("POST /discover = %d", code)
	}
	if ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if len(lines) < 2 {
		t.Fatalf("expected od lines plus a summary, got %v", lines)
	}
	for _, l := range lines {
		if e, ok := l["error"]; ok {
			t.Fatalf("stream carried an error: %v", e)
		}
	}
	var odLines []string
	for _, l := range lines[:len(lines)-1] {
		od, ok := l["od"].(string)
		if !ok {
			t.Fatalf("non-od line before the summary: %v", l)
		}
		odLines = append(odLines, od)
	}
	summary := lines[len(lines)-1]
	stats, ok := summary["stats"].(map[string]any)
	if !ok {
		t.Fatalf("last line is not a summary: %v", summary)
	}
	if n := summary["ods"].(float64); int(n) != len(odLines) {
		t.Fatalf("summary counts %v ODs, stream carried %d", n, len(odLines))
	}
	if stats["dataChecks"].(float64) <= 0 || stats["candidates"].(float64) <= 0 {
		t.Fatalf("degenerate stats: %v", stats)
	}
	consts, _ := summary["constants"].([]any)
	if len(consts) != 1 || consts[0] != "era" {
		t.Fatalf("constants = %v, want [era]", consts)
	}

	// The declare fed the shard: its catalog must now imply a discovered OD.
	decl, ok := summary["declared"].(map[string]any)
	if !ok {
		t.Fatalf("summary has no declared mutation: %v", summary)
	}
	if decl["schema"] != "cal" || decl["declared"].(float64) <= 0 {
		t.Fatalf("declared = %v", decl)
	}
	var prove struct {
		Implied bool `json:"implied"`
	}
	if code := call(t, ts, "POST", "/prove", map[string]any{
		"schema": "cal", "statement": "[month] -> [quarter]",
	}, &prove); code != 200 || !prove.Implied {
		t.Fatalf("shard does not imply a discovered OD: code=%d implied=%v", code, prove.Implied)
	}
	if gen, err := rt.GenerationOf("cal"); err != nil || gen == 0 {
		t.Fatalf("shard generation after declare: %d, %v", gen, err)
	}

	// The counters scrape cleanly and carry the run.
	fams := scrape(t, ts)
	for name, min := range map[string]float64{
		"odserve_discover_runs_total":           1,
		"odserve_discover_candidates_total":     1,
		"odserve_discover_data_checks_total":    1,
		"odserve_discover_rows_scanned_total":   1,
		"odserve_discover_accepted_ods_total":   1,
		"odserve_discover_cache_misses_total":   1,
		"odserve_discover_closure_pruned_total": 0,
		"odserve_discover_sorted_rows_total":    1,
		"odserve_discover_scan_pairs_total":     1,
		"odserve_discover_rank_views_total":     1,
		"odserve_discover_rank_rows_total":      1,
		"odserve_discover_cell_cells_total":     1,
		"odserve_discover_refine_rows_total":    0,
		"odserve_discover_tie_rows_total":       0,
		"odserve_discover_probe_decided_total":  0,
		"odserve_discover_probe_rows_total":     0,
		"odserve_discover_compared_rows_total":  0,
		"odserve_discover_loop_cells_total":     0,
	} {
		v, ok := sampleValue(fams, name, name, nil)
		if !ok {
			t.Fatalf("metric %s missing from scrape", name)
		}
		if v < min {
			t.Fatalf("%s = %v, want >= %v", name, v, min)
		}
	}
}

// TestDiscoverEndpointNoDeclare: without "declare" the shard stays untouched.
func TestDiscoverEndpointNoDeclare(t *testing.T) {
	ts, _, rt, _ := newTelemetryServer(t, "", store.Options{}, 0)
	req := map[string]any{
		"attrs": []string{"a", "b"},
		"rows":  [][]any{{1, 10}, {2, 20}, {3, 30}},
	}
	code, _, lines := postNDJSON(t, ts.URL+"/discover", req)
	if code != 200 || len(lines) == 0 {
		t.Fatalf("code=%d lines=%v", code, lines)
	}
	if _, ok := lines[len(lines)-1]["declared"]; ok {
		t.Fatalf("summary carries a declare that was not requested: %v", lines[len(lines)-1])
	}
	gens := rt.Generations()
	for name, g := range gens {
		if g != 0 {
			t.Fatalf("shard %q mutated: generation %d", name, g)
		}
	}
}

// TestDiscoverLeavesTierTelemetryFlat: discovery's inference is its own — a
// model table (a private catalog past nine attributes) that no shard owns —
// so a /discover that declares nothing moves neither /healthz's verdict tiers
// nor its search counters, however much it prunes by closure. That pruning is
// reported where discovery reports: the stats line and
// odserve_discover_closure_pruned_total.
func TestDiscoverLeavesTierTelemetryFlat(t *testing.T) {
	ts, _, _, _ := newTelemetryServer(t, "", store.Options{}, 0)
	// Live counters first: a declare and a prove only the search can refute.
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "cal", "statements": []string{"[month] -> [quarter]"},
	}, nil); code != 200 {
		t.Fatalf("declare = %d", code)
	}
	if code := call(t, ts, "POST", "/prove", map[string]any{
		"schema": "cal", "statement": "[quarter, half] -> [month]",
	}, nil); code != 200 {
		t.Fatalf("prove = %d", code)
	}
	totals := func() (catalog.TierStats, uint64, uint64) {
		t.Helper()
		var h healthzResponse
		if code := call(t, ts, "GET", "/healthz", nil, &h); code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		return h.Totals.Tiers, h.Totals.Searches, h.Totals.Nodes
	}
	tiers, searches, nodes := totals()
	if tiers == (catalog.TierStats{}) || nodes == 0 {
		t.Fatalf("the prove moved nothing: tiers %+v, searchNodes %d", tiers, nodes)
	}

	code, _, lines := postNDJSON(t, ts.URL+"/discover", map[string]any{
		"schema": "cal",
		"attrs":  []string{"month", "quarter", "half", "era"},
		"rows": [][]any{
			{1, 1, 1, 9}, {2, 1, 1, 9}, {3, 1, 1, 9},
			{4, 2, 1, 9}, {5, 2, 1, 9}, {6, 2, 1, 9},
			{7, 3, 2, 9}, {8, 3, 2, 9}, {10, 4, 2, 9},
		},
	})
	if code != 200 || len(lines) == 0 {
		t.Fatalf("POST /discover = %d, %d lines", code, len(lines))
	}
	stats, _ := lines[len(lines)-1]["stats"].(map[string]any)
	pruned, _ := stats["closurePruned"].(float64)
	if pruned == 0 {
		t.Fatalf("the run pruned nothing by closure: %v", lines[len(lines)-1])
	}

	if t2, s2, n2 := totals(); t2 != tiers || s2 != searches || n2 != nodes {
		t.Errorf("a non-declaring /discover moved /healthz: tiers %+v → %+v, searches %d → %d, searchNodes %d → %d",
			tiers, t2, searches, s2, nodes, n2)
	}
	name := "odserve_discover_closure_pruned_total"
	if v, ok := sampleValue(scrape(t, ts), name, name, nil); !ok || v != pruned {
		t.Errorf("%s = %v (present=%v), stats line says %v", name, v, ok, pruned)
	}
}

// TestDiscoverEndpointBadRequests: schema violations answer 400 before any
// stream begins.
func TestDiscoverEndpointBadRequests(t *testing.T) {
	ts, _, _, _ := newTelemetryServer(t, "", store.Options{}, 0)
	for name, req := range map[string]map[string]any{
		"no attrs":      {"rows": [][]any{{1}}},
		"ragged row":    {"attrs": []string{"a", "b"}, "rows": [][]any{{1}}},
		"mixed column":  {"attrs": []string{"a"}, "rows": [][]any{{1}, {"x"}}},
		"bool cell":     {"attrs": []string{"a"}, "rows": [][]any{{true}}},
		"unknown field": {"attrs": []string{"a"}, "rows": [][]any{{1}}, "bogus": 1},
		"too many attrs": {"attrs": []string{"a", "b", "c", "d", "e", "f", "g", "h"},
			"rows": [][]any{{1, 2, 3, 4, 5, 6, 7, 8}}},
		"too many candidates": {"attrs": []string{"a", "b", "c", "d", "e", "f", "g"},
			"rows": [][]any{{1, 2, 3, 4, 5, 6, 7}}, "maxLHS": 7, "maxRHS": 7},
	} {
		code, _, _ := postNDJSON(t, ts.URL+"/discover", req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", name, code)
		}
	}
}

// TestDiscoverEndpointHugeIntegers: integers beyond ±2⁵³ are not exactly
// representable in the float64 the decoder produces, and from 2⁶³ their
// int64 conversion saturates to one value; such a column is compared as
// float, so distinct cells stay distinct — a is not a constant and the swap
// between a and b is seen.
func TestDiscoverEndpointHugeIntegers(t *testing.T) {
	ts, _, _, _ := newTelemetryServer(t, "", store.Options{}, 0)
	code, _, lines := postNDJSON(t, ts.URL+"/discover", map[string]any{
		"attrs": []string{"a", "b"},
		"rows":  [][]any{{1e19, 3}, {2e19, 2}, {3e19, 1}},
	})
	if code != 200 || len(lines) == 0 {
		t.Fatalf("code=%d lines=%v", code, lines)
	}
	for _, l := range lines[:len(lines)-1] {
		if od := l["od"]; od == "[a] -> [b]" || od == "[] -> [a]" {
			t.Fatalf("accepted %v, which the data violates", od)
		}
	}
	if consts, _ := lines[len(lines)-1]["constants"].([]any); len(consts) != 0 {
		t.Fatalf("constants = %v, want none", consts)
	}
}

// TestDiscoverHugeWorkersSameStream: a request that asks for a million
// workers streams the same NDJSON, byte for byte, as one that leaves workers
// to the daemon. The bound on goroutines is TestRunGroupsBoundedByGOMAXPROCS's.
func TestDiscoverHugeWorkersSameStream(t *testing.T) {
	ts, _, _, _ := newTelemetryServer(t, "", store.Options{}, 0)
	rows := make([][]int, 300)
	for i := range rows {
		month := 1 + i%12
		rows[i] = []int{month, (month + 2) / 3, i * 7919 % 53, i % 5, 9}
	}
	stream := func(workers int) string {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"attrs":   []string{"month", "quarter", "r", "s", "era"},
			"rows":    rows,
			"maxLHS":  2,
			"maxRHS":  2,
			"workers": workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/discover", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("workers %d: POST /discover = %d, %v", workers, resp.StatusCode, err)
		}
		return string(out)
	}
	want := stream(0)
	if !strings.Contains(want, `[month] -\u003e [quarter]`) { // encoding/json escapes '>'
		t.Fatalf("the default run misses [month] -> [quarter]:\n%s", want)
	}
	if got := stream(1_000_000); got != want {
		t.Fatalf("workers 1000000 streamed\n%s\nworkers 0 streamed\n%s", got, want)
	}
}

// cancelOnFlush cancels its request when the handler first flushes a line:
// a client that gives up once the stream has begun.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (w cancelOnFlush) Flush() {
	w.cancel()
	w.ResponseRecorder.Flush()
}

// TestDiscoverReusesNoState: what a /discover request leaves in the pools —
// its body buffer, integer cells, rank views and partition arrays — never
// reaches another request's answer. One server answers an interleaved
// sequence: bodies of every shape, one refused mid-rows and one whose client
// cancels at the first line among them. Each answer must be byte-identical
// to a fresh server's for the same request, and each that should complete
// must end in its summary line with no error line. Then four goroutines send
// the sequence at once, where a buffer handed back too early would be
// overwritten under a request still reading it. Run under -race.
func TestDiscoverReusesNoState(t *testing.T) {
	bench := benchBodies(t)
	steps := []struct {
		name     string
		body     []byte
		cancel   bool // the client cancels at the first flushed line
		complete bool // a 200 ending in the summary line
	}{
		{"date", bench["date1826x7"], false, true},
		{"random", bench["random4000x6"], false, true},
		{"three rows", []byte(`{"attrs":["a","b","c"],"rows":[[1,2,3],[2,2,1],[3,4,1]]}`), false, true},
		{"float column", []byte(`{"attrs":["x","y"],"rows":[[0.5,1],[1.5,2],[1.25,3],[2,2]]}`), false, true},
		{"string column", []byte(`{"attrs":["s","n"],"rows":[["b",1],["a",2],["c",3],["b",4]]}`), false, true},
		{"refused mid-rows", []byte(`{"attrs":["a","b"],"rows":[[1,2],[3,4],[5,"x"],[6,7]]}`), false, false},
		{"cancelled", bench["date1826x7"], true, false},
		{"date again", bench["date1826x7"], false, true},
	}
	answer := func(srv *Server, body []byte, cancel bool) string {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		req := httptest.NewRequest(http.MethodPost, "/discover", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		var w http.ResponseWriter = rec
		if cancel {
			w = cancelOnFlush{rec, stop}
		}
		srv.ServeHTTP(w, req)
		return fmt.Sprintf("%d %s", rec.Code, rec.Body)
	}
	fresh := func() *Server {
		rt, err := router.Open(router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rt.Close() })
		return New(rt)
	}

	want := make([]string, len(steps))
	for i, st := range steps {
		want[i] = answer(fresh(), st.body, st.cancel)
		complete := strings.HasPrefix(want[i], "200 ") && !strings.Contains(want[i], `{"error"`) &&
			strings.Contains(want[i][strings.LastIndex(strings.TrimSuffix(want[i], "\n"), "\n")+1:], `"stats"`)
		if complete != st.complete {
			t.Fatalf("%s: a fresh server answered %.300s; complete = %v, want %v", st.name, want[i], complete, st.complete)
		}
	}
	if !strings.Contains(want[6], `{"error":"context canceled"}`) {
		t.Fatalf("cancelled: a fresh server answered %.300s, want the stream cut by the cancellation", want[6])
	}

	shared := fresh()
	for round := range 2 {
		for i, st := range steps {
			if got := answer(shared, st.body, st.cancel); got != want[i] {
				t.Fatalf("round %d, %s: the shared server answered\n%.300s\na fresh one\n%.300s", round, st.name, got, want[i])
			}
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range steps {
				i := (g + k) % len(steps)
				if got := answer(shared, steps[i].body, steps[i].cancel); got != want[i] {
					t.Errorf("goroutine %d, %s: the shared server answered\n%.300s\na fresh one\n%.300s", g, steps[i].name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// flushCounter records, at each flush, how many bytes the handler had
// written by then.
type flushCounter struct {
	*httptest.ResponseRecorder
	at []int
}

func (w *flushCounter) Flush() {
	w.at = append(w.at, w.Body.Len())
	w.ResponseRecorder.Flush()
}

// TestDiscoverFlushesThroughTelemetry: with telemetry on, as odserve always
// runs, every NDJSON line of /discover is flushed as it is written — the 12
// OD lines of the date body as their levels commit, then the summary — and
// the request still counts as one 200 on its route. The observing wrapper
// once hid the writer's Flush, and the stream reached the client only when
// the handler returned.
func TestDiscoverFlushesThroughTelemetry(t *testing.T) {
	srv, _ := daemonHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/discover", bytes.NewReader(benchBodies(t)["date1826x7"]))
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(w, req)
	body := w.Body.String()
	if w.Code != http.StatusOK || !strings.HasSuffix(body, "\n") {
		t.Fatalf("discover = %d %.300s", w.Code, body)
	}
	var ends []int // the offset just past each line
	for i, c := range body {
		if c == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != 13 || !slices.Equal(w.at, ends) {
		t.Fatalf("flushed at bytes %v, the %d lines end at %v; want one flush per line of 12 ODs and a summary", w.at, len(ends), ends)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := metrics.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{"route": "/discover", "method": "POST", "code": "200"}
	if v, ok := sampleValue(fams, "odserve_http_requests_total", "odserve_http_requests_total", labels); !ok || v != 1 {
		t.Fatalf("odserve_http_requests_total%v = %v (present=%v), want 1", labels, v, ok)
	}
}
