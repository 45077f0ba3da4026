package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/router"
)

// witnessViaRelation is the encoder witnessOf replaced, kept as the
// reference it must match byte for byte: project the pattern onto its
// non-Equal attributes through a second Pattern, realize that as a
// two-row Relation of Values, and read the rows back out.
func witnessViaRelation(p *core.Pattern) *witnessJSON {
	if p == nil {
		return nil
	}
	var kept core.List
	var keptSigns []core.Sign
	signs := p.Signs()
	for i, a := range p.Universe() {
		if signs[i] != core.Equal {
			kept = append(kept, a)
			keptSigns = append(keptSigns, signs[i])
		}
	}
	q := core.MustPattern(kept)
	for i, a := range kept {
		if err := q.SetSign(a, keptSigns[i]); err != nil {
			panic(err)
		}
	}
	w := &witnessJSON{
		Pattern: q.String(),
		Signs:   make(map[string]string, len(kept)),
	}
	for i, a := range kept {
		w.Attrs = append(w.Attrs, string(a))
		w.Signs[string(a)] = keptSigns[i].String()
	}
	rel := q.Relation()
	for i := 0; i < rel.Len(); i++ {
		row := make([]int64, 0, len(kept))
		for _, v := range rel.Row(i) {
			row = append(row, v.Int)
		}
		w.Rows = append(w.Rows, row)
	}
	return w
}

// TestWitnessJSONUnchanged holds witnessOf, which writes the wire witness
// straight from the sign vector, to the bytes the Pattern → Relation
// encoder produced, on random refuting patterns of 1 to 14 attributes in
// random order (at least one sign not Equal, as in every refutation) and on
// no pattern at all.
func TestWitnessJSONUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	encode := func(w *witnessJSON) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(proveResponse{Statement: "s", Witness: w}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := encode(witnessOf(nil)), encode(witnessViaRelation(nil)); !bytes.Equal(got, want) {
		t.Fatalf("no witness: %s, want %s", got, want)
	}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(14)
		var universe core.List
		for _, k := range rng.Perm(40)[:n] {
			universe = append(universe, core.Attribute(fmt.Sprintf("%c%d", 'a'+rune(k%26), k)))
		}
		p := core.MustPattern(universe)
		for k := range p.Signs() {
			p.Signs()[k] = core.Sign(rng.Intn(3) - 1)
		}
		p.Signs()[rng.Intn(n)] = core.Sign(2*rng.Intn(2) - 1)
		if got, want := encode(witnessOf(p)), encode(witnessViaRelation(p)); !bytes.Equal(got, want) {
			t.Fatalf("pattern %s:\n got %s\nwant %s", p, got, want)
		}
	}
}

// fuzzM is what FuzzProveBody declares on the default shard and on shard
// "s": a chain, an FD-form OD, an order compatibility and a constant.
var fuzzM = map[string]string{
	"":  "[a] -> [b]; [b] -> [c]; [c, d] -> [c, d, e]; [f] ~ [g]; [] -> [k]",
	"s": "[x] -> [y]; [y, z] -> [w]; [w] <-> [v]",
}

// FuzzProveBody sends whatever bytes the fuzzer writes as the body of POST
// /prove and of POST /prove/batch, each twice (the second answer may come
// from the verdict store), through ServeHTTP with telemetry on. Nothing may
// panic, and nothing may answer 5xx but the prove timeout. Every verdict a
// 200 carries must be a fresh prover.New(M)'s for its shard's declared set
// M, and every witness must be well formed — row 1 all 0, row 2 ±1 — and
// its two rows must satisfy M and falsify the statement.
func FuzzProveBody(f *testing.F) {
	for _, seed := range []string{
		`{"statement": "[a] -> [c]"}`,
		`{"statement": "[c] -> [a]"}`,
		`{"statement": "[a] -> [a, c]"}`,
		`{"schema": "s", "statement": "[x] <-> [w]"}`,
		`{"schema": "s", "statement": "[y, z] ~ [v, x]"}`,
		`{"statement": "[f, g] -> [g, f]"}`,
		`{"statement": "[a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12, a13, a14, a15] -> [a15]"}`,
		`{"statements": ["[a] -> [c]", "[c] -> [a]", "[k] -> []", "[d] -> [e]"]}`,
		`{"schema": "s", "statements": ["[x] -> [v]", "[v] -> [z]", "[q] ~ [x]"]}`,
		`{"schema": "other", "statements": ["[a] -> [b]"]}`,
		`{"statement": "[a] -> [b]", "extra": 1}`,
		`{"statements": []}`,
		`{"statement": "[a] -> [b`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tel := NewTelemetry()
		rt, err := router.Open(router.Options{Catalog: tel.CatalogOptions(nil), Telemetry: tel.RouterTelemetry()})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for schema, text := range fuzzM {
			ods, err := core.ParseStatements(text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Declare(schema, ods); err != nil {
				t.Fatal(err)
			}
		}
		srv := New(rt, WithTelemetry(tel), WithProveTimeout(2*time.Second))
		for _, path := range []string{"/prove", "/prove/batch", "/prove", "/prove/batch"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch {
			case rec.Code == http.StatusOK:
			case rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout:
				t.Fatalf("%s %q: %d %s", path, body, rec.Code, rec.Body)
			default:
				continue
			}
			var results []proveResponse
			if path == "/prove" {
				var one proveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
					t.Fatalf("%s %q: 200 with %q: %v", path, body, rec.Body, err)
				}
				results = append(results, one)
			} else {
				var batch batchProveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
					t.Fatalf("%s %q: 200 with %q: %v", path, body, rec.Body, err)
				}
				results = batch.Results
			}
			for _, res := range results {
				if res.Error == "" {
					checkVerdict(t, res)
				}
			}
		}
	})
}

// checkVerdict holds one answered statement to a fresh prover over its
// shard's declared set, and its witness to M and the statement.
func checkVerdict(t *testing.T, res proveResponse) {
	t.Helper()
	ods, err := core.ParseStatement(res.Statement)
	if err != nil {
		t.Fatalf("answered statement %q does not parse: %v", res.Statement, err)
	}
	m, err := core.ParseStatements(fuzzM[res.Schema])
	if err != nil {
		t.Fatal(err)
	}
	p := prover.New(m)
	want := true
	for _, od := range ods {
		if od.Trivial() {
			continue // implied by reflexivity and normalization, however wide
		}
		ok, err := p.ImpliesCtx(context.Background(), od)
		if err != nil {
			return // past the guard: the answer came from a tier with nothing to compare to
		}
		if !ok {
			want = false
			break
		}
	}
	if res.Implied != want {
		t.Fatalf("shard %q: %q answered implied=%v, a fresh prover says %v", res.Schema, res.Statement, res.Implied, want)
	}
	if res.Implied {
		if res.Witness != nil {
			t.Fatalf("%q: implied with a witness", res.Statement)
		}
		return
	}
	w := res.Witness
	if w == nil {
		t.Fatalf("%q: refuted without a witness", res.Statement)
	}
	if len(w.Rows) != 2 || len(w.Rows[0]) != len(w.Attrs) || len(w.Rows[1]) != len(w.Attrs) || len(w.Signs) != len(w.Attrs) {
		t.Fatalf("%q: malformed witness %+v", res.Statement, w)
	}
	pattern := core.MustPattern(core.L(w.Attrs...))
	var text []string
	for i, a := range w.Attrs {
		s := core.Less
		if w.Rows[1][i] < 0 {
			s = core.Greater
		}
		if r := w.Rows[1][i]; w.Rows[0][i] != 0 || (r != 1 && r != -1) || w.Signs[a] != s.String() {
			t.Fatalf("%q: witness column %s reads %d, %d, sign %q", res.Statement, a, w.Rows[0][i], w.Rows[1][i], w.Signs[a])
		}
		pattern.Signs()[i] = s
		text = append(text, a+s.String())
	}
	if w.Pattern != strings.Join(text, " ") {
		t.Fatalf("%q: witness pattern %q, its columns say %q", res.Statement, w.Pattern, strings.Join(text, " "))
	}
	if !pattern.HoldsAll(m) {
		t.Fatalf("shard %q: witness %s of %q violates M", res.Schema, pattern, res.Statement)
	}
	if pattern.HoldsAll(ods) {
		t.Fatalf("shard %q: witness %s does not falsify %q", res.Schema, pattern, res.Statement)
	}
}
