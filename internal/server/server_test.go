package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"odlib/internal/router"
	"odlib/internal/store"
)

// newTestServer boots an httptest server over a fresh router; dataDir == ""
// runs in-memory.
func newTestServer(t *testing.T, opt router.Options, sopts ...Option) *httptest.Server {
	t.Helper()
	rt, err := router.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rt, sopts...))
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return ts
}

// call issues a JSON request against the test server and decodes the reply.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// healthz mirrors the /healthz response shape.
type healthz struct {
	OK     bool                         `json:"ok"`
	Shards map[string]router.ShardStats `json:"shards"`
	Totals struct {
		Shards   int `json:"shards"`
		Declared int `json:"declared"`
		Closure  int `json:"closure"`
	} `json:"totals"`
}

// TestEndToEnd drives declare → list → prove → rewrite → remove → prove
// through real HTTP, the acceptance flow for odserve.
func TestEndToEnd(t *testing.T) {
	ts := newTestServer(t, router.Options{})

	// Health starts clean.
	var health healthz
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != 200 || !health.OK {
		t.Fatalf("healthz = %d %+v", code, health)
	}
	if health.Totals.Shards != 0 {
		t.Fatalf("fresh daemon has %d shards", health.Totals.Shards)
	}

	// Declare: one plain OD and one equivalence (expands to two ODs).
	var changed struct {
		Added      int    `json:"added"`
		Declared   int    `json:"declared"`
		Closure    int    `json:"closure"`
		Generation uint64 `json:"generation"`
	}
	code := call(t, ts, "POST", "/ods", map[string]any{
		"statements": []string{"[month] -> [quarter]"},
		"text":       "[B] -> [C]\n[A] -> [B]",
	}, &changed)
	if code != 200 || changed.Added != 3 || changed.Declared != 3 {
		t.Fatalf("declare = %d %+v", code, changed)
	}
	if changed.Closure != 4 {
		t.Fatalf("closure = %d, want 4 (the 3 declared plus the transitive [A] -> [C])", changed.Closure)
	}

	// List (single shard via ?schema=) shows declared and derived constraints.
	var list struct {
		Generation uint64   `json:"generation"`
		Declared   []string `json:"declared"`
		Closure    []string `json:"closure"`
	}
	if code := call(t, ts, "GET", "/ods?schema=", nil, &list); code != 200 {
		t.Fatalf("list = %d", code)
	}
	if len(list.Declared) != 3 {
		t.Fatalf("declared = %v", list.Declared)
	}
	found := false
	for _, s := range list.Closure {
		if s == "[A] -> [C]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("closure %v is missing the derived [A] -> [C]", list.Closure)
	}

	// The fan-out form nests per shard.
	var all struct {
		Shards map[string]struct {
			Declared []string `json:"declared"`
		} `json:"shards"`
	}
	if code := call(t, ts, "GET", "/ods", nil, &all); code != 200 || len(all.Shards) != 1 {
		t.Fatalf("fan-out list = %d %+v", code, all)
	}
	if len(all.Shards[""].Declared) != 3 {
		t.Fatalf("fan-out default shard = %+v", all.Shards[""])
	}

	// Prove an implied statement.
	var prove struct {
		Implied bool `json:"implied"`
		Witness *struct {
			Pattern string            `json:"pattern"`
			Signs   map[string]string `json:"signs"`
			Rows    [][]int64         `json:"rows"`
		} `json:"witness"`
	}
	code = call(t, ts, "POST", "/prove", map[string]string{
		"statement": "[year, quarter, month] <-> [year, month]",
	}, &prove)
	if code != 200 || !prove.Implied {
		t.Fatalf("prove implied = %d %+v", code, prove)
	}

	// Prove a refuted statement: needs a counterexample.
	code = call(t, ts, "POST", "/prove", map[string]string{"statement": "[quarter] -> [month]"}, &prove)
	if code != 200 || prove.Implied {
		t.Fatalf("prove refuted = %d %+v", code, prove)
	}
	if prove.Witness == nil || len(prove.Witness.Rows) != 2 {
		t.Fatalf("refutation lacks a two-row witness: %+v", prove.Witness)
	}

	// Rewrite: the paper's Example 1 reduction.
	var rw struct {
		Input   string `json:"input"`
		Reduced string `json:"reduced"`
		Steps   []struct {
			Rule string `json:"rule"`
		} `json:"steps"`
	}
	code = call(t, ts, "POST", "/rewrite", map[string]string{"order": "[year, quarter, month]"}, &rw)
	if code != 200 || rw.Reduced != "[year, month]" {
		t.Fatalf("rewrite = %d %+v", code, rw)
	}
	if len(rw.Steps) != 1 || rw.Steps[0].Rule != "od-left-eliminate" {
		t.Fatalf("rewrite steps = %+v", rw.Steps)
	}

	// GROUP BY reduction goes through the FD route.
	code = call(t, ts, "POST", "/rewrite", map[string]string{"groupBy": "[month, quarter, year]"}, &rw)
	if code != 200 || rw.Reduced != "[month, year]" {
		t.Fatalf("groupBy rewrite = %d %+v", code, rw)
	}

	// Remove a premise; the derived OD and the equivalence must fall.
	var removed struct {
		Removed    int    `json:"removed"`
		Generation uint64 `json:"generation"`
	}
	code = call(t, ts, "DELETE", "/ods", map[string]any{"statements": []string{"[month] -> [quarter]"}}, &removed)
	if code != 200 || removed.Removed != 1 {
		t.Fatalf("remove = %d %+v", code, removed)
	}
	code = call(t, ts, "POST", "/prove", map[string]string{
		"statement": "[year, quarter, month] <-> [year, month]",
	}, &prove)
	if code != 200 || prove.Implied {
		t.Fatalf("prove after remove = %d %+v; the memo must have been invalidated", code, prove)
	}

	// Health reflects the traffic.
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Totals.Declared != 2 || health.Shards[""].Catalog.Generation < 2 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestSchemaShardsOverHTTP checks shard addressing end to end: constraints
// declared under one schema are invisible to others, and /healthz reports
// per-shard state.
func TestSchemaShardsOverHTTP(t *testing.T) {
	ts := newTestServer(t, router.Options{})

	call(t, ts, "POST", "/ods", map[string]any{
		"schema": "sales", "statements": []string{"[month] -> [quarter]"},
	}, nil)
	call(t, ts, "POST", "/ods", map[string]any{
		"schema": "inv", "statements": []string{"[bin] -> [aisle]"},
	}, nil)

	var prove struct {
		Schema  string `json:"schema"`
		Implied bool   `json:"implied"`
	}
	code := call(t, ts, "POST", "/prove", map[string]string{
		"schema": "sales", "statement": "[month] -> [quarter]",
	}, &prove)
	if code != 200 || !prove.Implied || prove.Schema != "sales" {
		t.Fatalf("prove on sales = %d %+v", code, prove)
	}
	code = call(t, ts, "POST", "/prove", map[string]string{
		"schema": "inv", "statement": "[month] -> [quarter]",
	}, &prove)
	if code != 200 || prove.Implied {
		t.Fatalf("inv shard sees sales constraints: %+v", prove)
	}

	var health healthz
	call(t, ts, "GET", "/healthz", nil, &health)
	if health.Totals.Shards != 2 || health.Totals.Declared != 2 {
		t.Fatalf("healthz totals = %+v", health.Totals)
	}

	// Invalid schema names are client errors.
	var e struct {
		Error string `json:"error"`
	}
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "../evil", "statements": []string{"[A] -> [B]"},
	}, &e); code != 400 || e.Error == "" {
		t.Fatalf("bad schema = %d %+v", code, e)
	}
}

// TestBatchEndpoints drives /ods/batch and /prove/batch: one request, many
// statements, consistent generations per shard.
func TestBatchEndpoints(t *testing.T) {
	ts := newTestServer(t, router.Options{})

	var declared struct {
		Shards map[string]struct {
			Added      int    `json:"added"`
			Generation uint64 `json:"generation"`
		} `json:"shards"`
	}
	code := call(t, ts, "POST", "/ods/batch", map[string]any{
		"declare": []string{"[A] -> [B]", "[B] -> [C]", "[C] -> [D]"},
	}, &declared)
	if code != 200 || declared.Shards[""].Added != 3 {
		t.Fatalf("batch declare = %d %+v", code, declared)
	}
	if declared.Shards[""].Generation != 1 {
		t.Fatalf("batch of 3 advanced generation to %d, want 1 (single rebuild)",
			declared.Shards[""].Generation)
	}

	var proved struct {
		Results []struct {
			Statement  string `json:"statement"`
			Implied    bool   `json:"implied"`
			Generation uint64 `json:"generation"`
			Error      string `json:"error"`
		} `json:"results"`
	}
	code = call(t, ts, "POST", "/prove/batch", map[string]any{
		"statements": []string{"[A] -> [D]", "[D] -> [A]", "[A, B] -> [B, C]"},
	}, &proved)
	if code != 200 || len(proved.Results) != 3 {
		t.Fatalf("batch prove = %d %+v", code, proved)
	}
	if !proved.Results[0].Implied || proved.Results[1].Implied || !proved.Results[2].Implied {
		t.Fatalf("batch verdicts = %+v", proved.Results)
	}
	for _, res := range proved.Results {
		if res.Generation != proved.Results[0].Generation {
			t.Fatalf("one batch, multiple generations: %+v", proved.Results)
		}
	}

	// Mixed declare+remove in one batch.
	var mixed struct {
		Shards map[string]struct {
			Added   int `json:"added"`
			Removed int `json:"removed"`
		} `json:"shards"`
	}
	code = call(t, ts, "POST", "/ods/batch", map[string]any{
		"declare": []string{"[X] -> [Y]"},
		"remove":  []string{"[A] -> [B]"},
	}, &mixed)
	if code != 200 || mixed.Shards[""].Added != 1 || mixed.Shards[""].Removed != 1 {
		t.Fatalf("mixed batch = %d %+v", code, mixed)
	}

	// Empty batches are client errors.
	if code := call(t, ts, "POST", "/ods/batch", map[string]any{}, nil); code != 400 {
		t.Fatalf("empty mutate batch = %d, want 400", code)
	}
	if code := call(t, ts, "POST", "/prove/batch", map[string]any{}, nil); code != 400 {
		t.Fatalf("empty prove batch = %d, want 400", code)
	}
}

// TestSnapshotEndpoint exercises the admin trigger against a durable router
// and its no-op behavior on an ephemeral one.
func TestSnapshotEndpoint(t *testing.T) {
	ephemeral := newTestServer(t, router.Options{})
	var snap struct {
		Shards map[string]router.SnapshotResult `json:"shards"`
	}
	if code := call(t, ephemeral, "POST", "/snapshot", nil, &snap); code != 200 || len(snap.Shards) != 0 {
		t.Fatalf("ephemeral snapshot = %d %+v", code, snap)
	}

	durable := newTestServer(t, router.Options{
		DataDir: t.TempDir(),
		Store:   store.Options{Fsync: false},
	})
	call(t, durable, "POST", "/ods", map[string]any{"statements": []string{"[A] -> [B]"}}, nil)
	if code := call(t, durable, "POST", "/snapshot", nil, &snap); code != 200 {
		t.Fatalf("snapshot = %d", code)
	}
	if got := snap.Shards[""]; got.Declared != 1 || got.Seq != 1 {
		t.Fatalf("snapshot result = %+v", snap.Shards)
	}

	var health healthz
	call(t, durable, "GET", "/healthz", nil, &health)
	st := health.Shards[""].Store
	if st == nil || st.Snapshots != 1 || st.WALBytes != 0 {
		t.Fatalf("store stats after snapshot = %+v", st)
	}

	// ?schema= (present but empty) addresses the default shard alone.
	if code := call(t, durable, "POST", "/snapshot?schema=", nil, &snap); code != 200 || len(snap.Shards) != 1 {
		t.Fatalf("targeted default-shard snapshot = %d %+v", code, snap)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, router.Options{})

	cases := []struct {
		method, path string
		body         any
	}{
		{"POST", "/ods", map[string]any{"statements": []string{"not an od"}}},
		{"POST", "/ods", map[string]any{}},
		{"POST", "/ods", map[string]any{"unknown": 1}},
		{"POST", "/prove", map[string]string{"statement": "[A ->"}},
		{"POST", "/prove/batch", map[string]any{"statements": []string{"[A] -> [B]", "broken"}}},
		{"POST", "/rewrite", map[string]string{}},
		{"POST", "/rewrite", map[string]string{"order": "[A]", "groupBy": "[B]"}},
		{"POST", "/rewrite", map[string]string{"order": "[1bad]"}},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := call(t, ts, c.method, c.path, c.body, &e); code != 400 {
			t.Errorf("%s %s %v: status = %d, want 400", c.method, c.path, c.body, code)
		} else if e.Error == "" {
			t.Errorf("%s %s %v: missing error message", c.method, c.path, c.body)
		}
	}

	// Wrong method on a known path 405s via the method-aware mux.
	resp, err := ts.Client().Get(ts.URL + "/prove")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /prove = %d, want 405", resp.StatusCode)
	}
}

// TestBodyTooLargeIs413: a body past maxBodyBytes is told so — 413 with the
// usual error shape, on every endpoint that reads one — and a body of exactly
// that size is read and answered.
func TestBodyTooLargeIs413(t *testing.T) {
	ts := newTestServer(t, router.Options{})
	// Valid JSON of a given size: the padding is white space inside the
	// object, so the decoder cannot stop before it.
	padded := func(member string, size int) *bytes.Reader {
		return bytes.NewReader([]byte("{" + strings.Repeat(" ", size-len(member)-2) + member + "}"))
	}
	for path, member := range map[string]string{
		"/prove":     `"statement":"[a] -> [b]"`,
		"/ods/batch": `"declare":["[a] -> [b]"]`,
		"/discover":  `"attrs":["a","b"],"rows":[[1,2],[2,3]]`,
		"/snapshot":  `"schema":"s"`,
	} {
		for size, tooLarge := range map[int]bool{maxBodyBytes + 1: true, maxBodyBytes: false} {
			resp, err := ts.Client().Post(ts.URL+path, "application/json", padded(member, size))
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", path, size, err)
			}
			var e struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			switch {
			case !tooLarge && resp.StatusCode != http.StatusOK:
				t.Errorf("%s, %d bytes: status = %d, want 200", path, size, resp.StatusCode)
			case tooLarge && (resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == ""):
				t.Errorf("%s, %d bytes: status = %d, error %q (%v); want 413 with a message", path, size, resp.StatusCode, e.Error, err)
			}
		}
	}
}

// TestConcurrentTraffic exercises the daemon the way an optimizer fleet
// would: many goroutines proving and rewriting while constraints churn,
// against a durable sharded router.
func TestConcurrentTraffic(t *testing.T) {
	ts := newTestServer(t, router.Options{
		DataDir: t.TempDir(),
		Store:   store.Options{Fsync: true, SnapshotEvery: 16},
	})

	call(t, ts, "POST", "/ods", map[string]any{"statements": []string{"[A] -> [B]", "[B] -> [C]"}}, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < 25; i++ {
				var body bytes.Buffer
				var req *http.Request
				var err error
				switch (g + i) % 4 {
				case 0:
					fmt.Fprintf(&body, `{"statement": "[A] -> [C]"}`)
					req, err = http.NewRequest("POST", ts.URL+"/prove", &body)
				case 1:
					fmt.Fprintf(&body, `{"order": "[A, B, C]"}`)
					req, err = http.NewRequest("POST", ts.URL+"/rewrite", &body)
				case 2:
					fmt.Fprintf(&body, `{"statements": ["[A] -> [C]", "[C] -> [A]"]}`)
					req, err = http.NewRequest("POST", ts.URL+"/prove/batch", &body)
				default:
					fmt.Fprintf(&body, `{"statements": ["[G%d] -> [H%d]"], "schema": "shard%d"}`, g, i, g%3)
					req, err = http.NewRequest("POST", ts.URL+"/ods", &body)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var health healthz
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != 200 || !health.OK {
		t.Fatalf("healthz after traffic = %d %+v", code, health)
	}
	if health.Totals.Shards != 4 { // default + shard0..2
		t.Fatalf("shards after traffic = %+v", health.Totals)
	}
}

// TestHealthzFlipsOnWALFailure kills one shard's WAL behind a live daemon
// and asserts the contract the store documents ("health checks must see
// that"): /healthz answers 503, the top-level ok flips false, and the dead
// shard carries ok=false with a reason naming the WAL — while reads keep
// serving and healthy shards stay ok.
func TestHealthzFlipsOnWALFailure(t *testing.T) {
	rt, err := router.Open(router.Options{
		DataDir: t.TempDir(),
		Store:   store.Options{Fsync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rt))
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	for _, schema := range []string{"sick", "well"} {
		code := call(t, ts, "POST", "/ods", map[string]any{
			"schema": schema, "statements": []string{"[a] -> [b]"},
		}, nil)
		if code != 200 {
			t.Fatalf("declare on %s = %d", schema, code)
		}
	}
	var health healthz
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != 200 || !health.OK {
		t.Fatalf("pre-failure healthz = %d %+v", code, health)
	}

	rt.ShardStore("sick").FailWAL(fmt.Errorf("drill: disk died"))
	// The flip must be visible on the very next scrape — no mutation needed
	// to trip it first.
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after WAL death = %d, want 503", code)
	}
	if health.OK {
		t.Fatal("top-level ok still true with a dead shard WAL")
	}
	sick, ok := health.Shards["sick"]
	if !ok || sick.OK || !strings.Contains(sick.Reason, "wal") {
		t.Fatalf("sick shard verdict = %+v, want ok=false with a wal reason", sick)
	}
	if well := health.Shards["well"]; !well.OK || well.Reason != "" {
		t.Fatalf("healthy shard dragged down: %+v", well)
	}

	// Mutations on the dead shard fail loudly; reads still answer.
	if code := call(t, ts, "POST", "/ods", map[string]any{
		"schema": "sick", "statements": []string{"[b] -> [c]"},
	}, nil); code != http.StatusInternalServerError {
		t.Fatalf("mutation on dead-WAL shard = %d, want 500", code)
	}
	var prove struct {
		Implied bool `json:"implied"`
	}
	if code := call(t, ts, "POST", "/prove", map[string]any{
		"schema": "sick", "statement": "[a] -> [b]",
	}, &prove); code != 200 || !prove.Implied {
		t.Fatalf("read on degraded shard = %d %+v", code, prove)
	}
}

// TestClosureCountIsInflated pins which closure each surface sizes: a
// mutation response and /healthz count the inflated transitive closure the
// tier chain consults, GET /ods lists the deflated one.
func TestClosureCountIsInflated(t *testing.T) {
	ts := newTestServer(t, router.Options{})

	var changed struct {
		Declared int `json:"declared"`
		Closure  int `json:"closure"`
	}
	code := call(t, ts, "POST", "/ods", map[string]any{"statements": []string{"[a] -> [b, c]"}}, &changed)
	if code != 200 || changed.Declared != 1 || changed.Closure != 2 {
		t.Fatalf("declare = %d %+v, want declared 1 and closure 2 ([a] -> [b] and [a] -> [b, c])", code, changed)
	}

	var health healthz
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != 200 || health.Totals.Closure != 2 {
		t.Fatalf("healthz = %d, totals.closure %d, want the inflated 2", code, health.Totals.Closure)
	}

	var list struct {
		Closure []string `json:"closure"`
	}
	if code := call(t, ts, "GET", "/ods?schema=", nil, &list); code != 200 {
		t.Fatalf("list = %d", code)
	}
	if len(list.Closure) != 1 || list.Closure[0] != "[a] -> [b, c]" {
		t.Fatalf("listed closure = %v, want the deflated [a] -> [b, c] only", list.Closure)
	}
}
