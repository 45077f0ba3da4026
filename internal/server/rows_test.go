package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"odlib/internal/core"
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

// decodeBothWays decodes one request body through the handler's types and
// through the oracle's, each the way decodeBody does.
func decodeBothWays(body []byte) (got, want *core.Relation, gotErr, wantErr error) {
	var req discoverRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if gotErr = dec.Decode(&req); gotErr == nil {
		got, gotErr = relationOf(&req)
	}
	var oracle struct {
		discoverRequest
		Rows [][]any `json:"rows"`
	}
	dec = json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if wantErr = dec.Decode(&oracle); wantErr == nil {
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
	`[[1e400,1]]`, `[[-1e400,1]]`,
	`[[1,2],[3]]`, `[[1],[2,3]]`, `[[1,2,3]]`, `[[]]`, `[[],[]]`, `[[1,2],[]]`,
	`[[1,"x"],["y",2]]`, `[["x",1],[2,3]]`, `[[1,2],["x",3]]`,
	`[[true,1]]`, `[[null,1]]`, `[[{},1]]`, `[[[1],1]]`, `[[{"a":[1,"]"]},1]]`,
	`5`, `"rows"`, `{}`, `[5]`, `[null]`, `["x"]`, `[{}]`, `[[1,2],null]`, `true`,
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
