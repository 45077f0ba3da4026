package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odlib/internal/router"
	"odlib/internal/server"
)

func TestReadCSV(t *testing.T) {
	rel, err := readCSV(strings.NewReader("a,b,c\n1,2.5,x\n3,4.5,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || len(rel.Attrs()) != 3 {
		t.Fatalf("shape = %d rows, %v", rel.Len(), rel.Attrs())
	}
	v, _ := rel.Value(0, "a")
	if v.Int != 1 {
		t.Errorf("int value = %v", v)
	}
	v, _ = rel.Value(1, "b")
	if v.F != 4.5 {
		t.Errorf("float value = %v", v)
	}
	v, _ = rel.Value(1, "c")
	if v.Str != "y" {
		t.Errorf("string value = %v", v)
	}
	if _, err := readCSV(strings.NewReader("")); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := readCSV(strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Error("duplicate header must fail")
	}
	if _, err := readCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged row must fail")
	}
}

// chainCSV is a small hierarchy: b orders a, a orders c, era is constant.
// [b] -> [c] holds too, but the two ODs accepted before it imply it.
const chainCSV = "a,b,c,era\n1,1,1,9\n1,2,1,9\n2,3,1,9\n2,4,1,9\n3,5,2,9\n3,6,2,9\n"

func writeCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.csv")
	if err := os.WriteFile(path, []byte(chainCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunStream: the pipeline streams the minimal set as it is accepted —
// the constant, then the chain's two links and not their composition — and
// reports its pruning counters.
func TestRunStream(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workers", "4", "-stream", writeCSV(t)}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "found: [] -> [era]\nfound: [a] -> [c]\nfound: [b] -> [a]\ncandidates: ") {
		t.Errorf("streamed ODs are not the minimal set in acceptance order:\n%s", text)
	}
	if !strings.Contains(text, "refutation-pruned") || !strings.Contains(text, "partition cache") {
		t.Errorf("pipeline counters missing:\n%s", text)
	}
	if !strings.Contains(text, "constants: [era]") || !strings.Contains(text, "OD set (3):") {
		t.Errorf("constant or set size not reported:\n%s", text)
	}
}

// TestRunSequential: one worker and the default, GOMAXPROCS, print the same
// report to the byte — set, order and counters.
func TestRunSequential(t *testing.T) {
	path := writeCSV(t)
	var one, dflt bytes.Buffer
	if err := run([]string{"-workers", "1", path}, &one); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, &dflt); err != nil {
		t.Fatal(err)
	}
	if one.String() != dflt.String() {
		t.Errorf("-workers 1 and the default differ:\n%s\nvs\n%s", one.String(), dflt.String())
	}
	if !strings.Contains(one.String(), "data checks:") {
		t.Errorf("counters missing:\n%s", one.String())
	}
}

// TestRunDeclare pushes a discovery run into a live daemon and checks the
// ODs landed in the target shard.
func TestRunDeclare(t *testing.T) {
	rt, err := router.Open(router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(server.New(rt))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-workers", "2", "-declare", ts.URL, "-schema", "cal", writeCSV(t)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "declared 3 ODs") {
		t.Errorf("declare not reported:\n%s", out.String())
	}
	l, err := rt.Listing("cal")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Declared) != 3 {
		t.Fatalf("%d ODs landed in the shard, want the minimal set's 3: %v", len(l.Declared), l.Declared)
	}
}
