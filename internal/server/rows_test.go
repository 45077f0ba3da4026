package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"odlib/internal/core"
	"odlib/internal/warehouse"
)

// relationOfAny is the differential oracle of the typed rows decoder: the
// request decoded by encoding/json into [][]any and validated cell by cell,
// as the handler did before instanceRows.
func relationOfAny(attrNames []string, rows [][]any) (*core.Relation, error) {
	if len(attrNames) == 0 {
		return nil, fmt.Errorf("no attributes given")
	}
	attrs := make(core.List, len(attrNames))
	for i, a := range attrNames {
		attrs[i] = core.Attribute(a)
	}
	r, err := core.NewRelation(attrs)
	if err != nil {
		return nil, err
	}
	kinds := make([]core.Kind, len(attrs))
	for i := range kinds {
		kinds[i] = core.KindInt
	}
	for ri, row := range rows {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("row %d has %d cells, schema has %d attributes", ri, len(row), len(attrs))
		}
		for ci, cell := range row {
			switch v := cell.(type) {
			case string:
				kinds[ci] = core.KindString
			case float64:
				if v != math.Trunc(v) || math.Abs(v) > maxExactInt {
					if kinds[ci] == core.KindInt {
						kinds[ci] = core.KindFloat
					}
				}
			default:
				return nil, fmt.Errorf("row %d, attribute %s: unsupported value %v", ri, attrs[ci], cell)
			}
		}
	}
	for ri, row := range rows {
		vals := make([]core.Value, len(row))
		for ci, cell := range row {
			switch v := cell.(type) {
			case string:
				vals[ci] = core.Str(v)
			case float64:
				switch kinds[ci] {
				case core.KindString:
					return nil, fmt.Errorf("row %d, attribute %s: number in a textual column", ri, attrs[ci])
				case core.KindFloat:
					vals[ci] = core.Float(v)
				default:
					vals[ci] = core.Int(int64(v))
				}
			}
		}
		if err := r.AddRow(vals...); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// decodeBothWays decodes one request body as the handler does and through
// the oracle's types, the way decodeBody does.
func decodeBothWays(body []byte) (got, want *core.Relation, gotErr, wantErr error) {
	var req discoverRequest
	if gotErr = decodeDiscoverBytes(body, &req); gotErr == nil {
		got, gotErr = relationOf(&req)
	}
	var oracle struct {
		discoverRequest
		Rows [][]any `json:"rows"`
	}
	if wantErr = strictDecode(body, &oracle); wantErr == nil {
		want, wantErr = relationOfAny(oracle.Attrs, oracle.Rows)
	}
	return got, want, gotErr, wantErr
}

// sameRelation compares cell by cell, kinds included: Int(1) and Float(1)
// compare equal but are different decodings.
func sameRelation(a, b *core.Relation) bool {
	if !a.Attrs().Equal(b.Attrs()) || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for c, v := range a.Row(i) {
			w := b.Row(i)[c]
			if v.Kind != w.Kind || v.Int != w.Int || v.Str != w.Str || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return false
			}
		}
	}
	return true
}

func checkRowsBody(t *testing.T, body []byte) {
	t.Helper()
	got, want, gotErr, wantErr := decodeBothWays(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s\ntyped decode: %v\n[][]any decode: %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !sameRelation(got, want) {
		t.Fatalf("%s\ntyped decode:\n%s[][]any decode:\n%s", body, got, want)
	}
}

// rowsCorpus is the "rows" values the typed decoder is held to the [][]any
// decode on, over the attributes a and b: every accepted shape and every
// refusal.
var rowsCorpus = []string{
	`[[1,2],[3,4]]`,
	` [ [ 1 , 2 ] ,` + "\n\t" + `[ 3 , 4 ] ] `,
	`[]`, `[ ]`, `null`,
	`[[-1,0],[-0,1e3],[1E+2,2.5e-1]]`,
	`[[1.5,"x"],[2,"y"]]`,
	`[["p,q]","[\"\\"],["é\u00e9\n","\ud83d\ude00"]]`,
	"[[\"\xff\xfe\",1]]",
	`[[9007199254740992,1],[9007199254740993,2]]`,
	`[[9007199254740991,1],[-9007199254740992,2]]`,
	`[[1e19,3],[2e19,2],[3e19,1]]`,
	`[[0,100000000000000],[10,999999999999999],[1E2,7]]`,
	`[[1e400,1]]`, `[[-1e400,1]]`,
	`[[1,2],[3]]`, `[[1],[2,3]]`, `[[1,2,3]]`, `[[]]`, `[[],[]]`, `[[1,2],[]]`,
	`[[1,"x"],["y",2]]`, `[["x",1],[2,3]]`, `[[1,2],["x",3]]`,
	`[[true,1]]`, `[[null,1]]`, `[[{},1]]`, `[[[1],1]]`, `[[{"a":[1,"]"]},1]]`,
	`5`, `"rows"`, `{}`, `[5]`, `[null]`, `["x"]`, `[{}]`, `[[1,2],null]`, `true`,
	// Integer columns over several rows: cells of 1, 7, 8, 9 and 15 digits,
	// then 16, which is not exact.
	`[[1,1],[2,1234567],[12345678,123456789],[999999999999999,-999999999999999],[-12345678,-1]]`,
	`[[1,2],[1234567890123456,3],[5,6]]`,
	`[[1,2],[3,4],[5,-1234567890123456]]`,
	// -0, a leading zero and a bare minus past row 0.
	`[[1,2],[-0,3],[4,5]]`, `[[1,2],[-0,3],[1.5,4]]`, `[[1,2],[01,3]]`, `[[1,2],[3,-01]]`, `[[1,2],[-,3]]`, `[[1,2],[3,-]]`,
	// A fraction or an exponent right after eight digits.
	`[[1,2],[12345678.5,3],[4,5]]`, `[[1,2],[12345678e2,3],[4,5]]`, `[[1,2],[3,87654321E+1]]`,
	`[[1,2],[123456789012345.5,3]]`, `[[1,2],[12345678.,3]]`,
	// White space inside a row.
	"[[1,2],[ 12345678 , 9 ],[\t-7\n,\r8 ],[123456789012345 ,1]]",
	// Cells 11, 10, 8 and 7 bytes from the end of the text.
	`[[1,2],[3,12345678]]`, `[[1,2],[3,1234567]]`, `[[1,2],[3,12345]]`, `[[1,2],[3,1234]]`,
	`[[1,2],[3,-1234]]`, `[[1,2],[3,9]]`,
	// Integer columns that turn float partway through the body, and back.
	`[[1,2],[3,4],[5.5,6],[7,8]]`, `[[1,2],[3,4],[5,6e-1],[7,12345678]]`,
	`[[1,2],[3,4],[-0,6],[12345678,8]]`, `[[1,2],[3,4],[1e2,6],[7,8]]`,
	// A string where an integer column reads on.
	`[[1,2],[3,"4"]]`, `[[1,2],["12345678",4]]`,
}

// TestRowsDecodeMatchesAnyDecode: the typed decoder accepts exactly the
// bodies the [][]any path accepted, builds the same relation cell for cell,
// and unknown fields, an absent "rows" and schema errors behave as before.
func TestRowsDecodeMatchesAnyDecode(t *testing.T) {
	for _, rows := range rowsCorpus {
		checkRowsBody(t, []byte(`{"attrs":["a","b"],"rows":`+rows+`}`))
		checkRowsBody(t, []byte(`{"rows":`+rows+`,"attrs":["a","b"],"maxLHS":1}`))
	}
	for _, body := range []string{
		`{"attrs":["a","b"]}`,
		`{"rows":[[1,2]]}`,
		`{"attrs":[],"rows":[]}`,
		`{"attrs":["a","a"],"rows":[[1,2]]}`,
		`{"attrs":["a","b"],"rows":[[1,2]],"bogus":1}`,
		`{"attrs":["a","b"],"rows":[[1,2]]`,
		`{"attrs":["a","b"],"rows":[[1,2],]}`,
		`{"attrs":["a"],"rows":[[1],[2],[3]]}`,
	} {
		checkRowsBody(t, []byte(body))
	}
}

// FuzzRowsDecode lets the fuzzer write the "rows" value.
func FuzzRowsDecode(f *testing.F) {
	for _, rows := range rowsCorpus {
		f.Add([]byte(rows))
	}
	f.Fuzz(func(t *testing.T, rows []byte) {
		checkRowsBody(t, append(append([]byte(`{"attrs":["a","b"],"rows":`), rows...), '}'))
	})
}

// bodyCorpus is whole bodies the one-scan decoder must judge as encoding/json
// does: what the top-level scan takes, what it has to decline, and what
// neither may accept.
var bodyCorpus = []string{
	`{"ROWS":[[1,2]],"attrs":["a","b"]}`,
	`{"Rows":[[1,2]],"ATTRS":["a","b"]}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"rows":[[3,4],[5,6]]}`,
	`{"attrs":["a","b"],"rows":[[true]],"rows":[[3,4]]}`,
	`{"attrs":["a","b"],"rows":[[3,4]],"Rows":null}`,
	`{"attrs":["a","b"],"schema":{"rows":[[9,9]]},"rows":[[1,2]]}`,
	`{"attrs":["a","b","rows",[[9,9]]],"rows":[[1,2]]}`,
	`{"attrs":["a","b"],"ro\u0077s":[[1,2]]}`,
	`{"attrs":["a","b"],"row\u017f":[[1,2]]}`,
	"{\"attrs\":[\"a\",\"b\"],\"row\u017f\":[[1,2]]}",
	`{"attrs":["a","b"],"rows":[[01,2]]}`,
	`{"attrs":["a","b"],"rows":[[1.,2]]}`,
	`{"attrs":["a","b"],"rows":[[-,2]]}`,
	`{"attrs":["a","b"],"rows":[[1e,2]]}`,
	`{"attrs":["a","b"],"rows":[[1e+,2]]}`,
	`{"attrs":["a","b"],"rows":[[.5,2]]}`,
	`{"attrs":["a","b"],"rows":[[+1,2]]}`,
	`{"attrs":["a","b"],"rows":[[-0,2],[1.5,3]]}`,
	`{"attrs":["a","b"],"rows":[[-0,2],[1,3]]}`,
	`{"attrs":["a","b"],"rows":[[0.0,2],[-0.0,3]]}`,
	`{"attrs":["a","b"],"rows":[[123456789012345,1],[1234567890123456,2],[-999999999999999,3]]}`,
	`{"attrs":["a","b"],"rows":[[1,2]x]}`,
	`{"attrs":["a","b"],"rows":[[1 2]]}`,
	`{"attrs":["a","b"],"rows":[[1,2]]]}`,
	`{"attrs":["a","b"],"rows":nul}`,
	`{"attrs":["a","b"],"rows":nullx}`,
	"{\"attrs\":[\"a\",\"b\"],\"rows\":[[\"x\x01y\",2]]}",
	"{\"attrs\":[\"a\",\"b\"],\"rows\":[[\"x\\n\x01y\",2]]}",
	"{\"attrs\":[\"a\",\"b\"],\"rows\":[[\"x\x7fy\",2]]}",
	`{"attrs":["a","b"],"rows":[["\u12",2]]}`,
	`{"attrs":["a","b"],"rows":[["\q",2]]}`,
	`{"attrs":["a","b"],"rows":[[1,2]]} trailing`,
	`{"attrs":["a","b"],"rows":[[1,2]]}{"attrs":["c"]}`,
	`{"attrs":["a","b"],"rows":[[1,2]]}]`,
	"\n\t {\"attrs\" : [\"a\",\"b\"] , \"rows\" : [[1,2]] , \"maxLHS\" : 1 }\n",
	`{"attrs":["a","b"],"rows":[[1,2]],}`,
	`{"attrs":["a","b"],,"rows":[[1,2]]}`,
	`{"attrs":["a","b"] "rows":[[1,2]]}`,
	`{"attrs":["a","b"],"rows" [[1,2]]}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"maxLHS":1 2}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"maxLHS":"1"}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"maxLHS":1e400}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"schema":"s\"}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"schema":"a\"b,}{"}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"declare":tru}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"declare":true,"keepRedundant":false,"workers":2,"maxAttrs":3,"maxRHS":1}`,
	`{"attrs":{"rows":1},"rows":[[1,2]]}`,
	`{"attrs":["a","b"],"rows":[[1,2]],"":0}`,
	`{}`, `{ }`, `null`, `[]`, `5`, `"x"`, ``, ` `, `{`, `}`, `{"rows"`, `{"rows":`, `{"rows":[`,
	"\xef\xbb\xbf{\"attrs\":[\"a\",\"b\"],\"rows\":[[1,2]]}",
	// Integer cells at the end of the body and just short of it.
	`{"attrs":["a","b"],"rows":[[1,2],[3,12345678]]}`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,123456789012345]]}`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,1234]]}`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,12345678]]`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,12345678`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,123`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,-`,
	`{"attrs":["a","b"],"rows":[[1,2],[3,4]],"maxLHS":12345678}`,
}

// FuzzDiscoverBody lets the fuzzer write the whole body, not only the rows
// value: the top-level scan — which member is "rows", where its value ends,
// what it leaves to encoding/json — is held to the same oracle.
func FuzzDiscoverBody(f *testing.F) {
	for _, rows := range rowsCorpus {
		f.Add([]byte(`{"attrs":["a","b"],"rows":` + rows + `}`))
		f.Add([]byte(`{"rows":` + rows + `,"attrs":["a","b"],"maxLHS":1}`))
	}
	for _, body := range bodyCorpus {
		f.Add([]byte(body))
	}
	// One body cut at every structural byte.
	whole := `{"schema":"s","attrs":["a","b"],"rows":[[1,"x"],[2.5,"y,]"]],"maxLHS":1}`
	for i := range whole {
		if strings.ContainsRune(`{}[]:,"`, rune(whole[i])) {
			f.Add([]byte(whole[:i]))
			f.Add([]byte(whole[:i+1]))
		}
	}
	f.Fuzz(checkRowsBody)
}

// TestScanTakesClientBodies holds the top-level scan to taking the bodies
// clients send: a declined body is still answered, but at three scans
// instead of one.
func TestScanTakesClientBodies(t *testing.T) {
	for _, body := range []string{
		`{"attrs":["a","b"],"rows":[[1,2],[3,4]]}`,
		` { "ROWS" : [ [ 1 , "x" ] ] , "attrs" : [ "a" , "b" ] , "maxLHS" : 1 , "declare" : false } tail`,
		`{"schema":"a\"b,}{","attrs":["a"],"rows":null,"maxRHS":2}`,
	} {
		var req discoverRequest
		if !scanDiscover([]byte(body), &req) {
			t.Errorf("the top-level scan declined %s", body)
		}
	}
}

// benchBodies are the two bodies bench/'s discover-date workload posts: the
// 1,826-day date dimension (7 columns) and a random 4,000 x 6 relation.
func benchBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	encode := func(r *core.Relation, maxLHS, maxRHS int) []byte {
		rows := make([][]int64, r.Len())
		for i := range rows {
			for _, v := range r.Row(i) {
				rows[i] = append(rows[i], v.Int)
			}
		}
		body, err := json.Marshal(map[string]any{"attrs": r.Attrs(), "rows": rows, "maxLHS": maxLHS, "maxRHS": maxRHS})
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	cfg := warehouse.DefaultConfig()
	cfg.Days, cfg.FactRows = 1826, 0
	w, err := warehouse.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	dates, err := w.DateDimRelation()
	if err != nil {
		tb.Fatal(err)
	}
	random := core.RandRelation(rand.New(rand.NewSource(1)), core.L("r0", "r1", "r2", "r3", "r4", "r5"), 4000, 50)
	return map[string][]byte{"date1826x7": encode(dates, 2, 3), "random4000x6": encode(random, 2, 2)}
}

// BenchmarkDiscoverDecode is the serial prefix of a /discover request, in
// process: body bytes to a relation ready to rank, next to
// internal/discover's BenchmarkPipeline*, which price what follows.
func BenchmarkDiscoverDecode(b *testing.B) {
	for name, body := range benchBodies(b) {
		b.Run(name, func(b *testing.B) {
			var req discoverRequest
			if !scanDiscover(body, &req) {
				b.Fatal("the top-level scan declined the body")
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req discoverRequest
				if err := decodeDiscoverBytes(body, &req); err != nil {
					b.Fatal(err)
				}
				if _, err := relationOf(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
