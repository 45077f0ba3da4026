package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each testdata package annotates expected findings
// with trailing comments of the form
//
//	// want <analyzer> "substring"
//
// (repeatable within one comment). A test fails on a want with no matching
// diagnostic on its line and on any diagnostic no want predicted.

type want struct {
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`(\w+) "([^"]*)"`)

func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				pairs := wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1)
				if len(pairs) == 0 {
					t.Fatalf("%s line %d: malformed want comment %q", pkg.Path, line, c.Text)
				}
				for _, p := range pairs {
					wants = append(wants, &want{line: line, analyzer: p[1], substr: p[2]})
				}
			}
		}
	}
	return wants
}

// runFixture loads one testdata package and runs the analyzers over it.
func runFixture(t *testing.T, importPath string, analyzers ...*Analyzer) (*Package, []Diagnostic) {
	t.Helper()
	dir := filepath.Join("testdata", strings.TrimPrefix(importPath, "fix/"))
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg, Run([]*Package{pkg}, analyzers)
}

// checkFixture matches diagnostics against the fixture's want comments.
func checkFixture(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.line == d.Pos.Line && w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s line %d: wanted %s diagnostic containing %q, got none", pkg.Path, w.line, w.analyzer, w.substr)
		}
	}
}

// fixtureLockOrder ranks the fixture package's S.a before S.b and
// summarizes Ext.Do as acquiring S.a.
func fixtureLockOrder(importPath string) LockOrderConfig {
	return LockOrderConfig{
		Ranks: map[string]int{
			importPath + ".S.a": 10,
			importPath + ".S.b": 20,
		},
		Acquires: map[string][]string{
			importPath + ".Ext.Do": {importPath + ".S.a"},
		},
	}
}

func TestLockOrderPositive(t *testing.T) {
	p := "fix/lockorder/positive"
	cfg := fixtureLockOrder(p)
	// Stale entries: a missing field, a field that is no mutex, a missing
	// type, a missing method, and a summary listing an unranked lock.
	cfg.Ranks[p+".S.gone"] = 30
	cfg.Ranks[p+".S.n"] = 40
	cfg.Ranks[p+".Gone.mu"] = 50
	cfg.Acquires[p+".Ext.Gone"] = []string{p + ".S.a"}
	cfg.Acquires[p+".Ext.Wait"] = []string{p + ".T.mu"}
	pkg, diags := runFixture(t, p, LockOrder(cfg))
	checkFixture(t, pkg, diags)
}

func TestLockOrderNegative(t *testing.T) {
	p := "fix/lockorder/negative"
	pkg, diags := runFixture(t, p, LockOrder(fixtureLockOrder(p)))
	checkFixture(t, pkg, diags)
	if len(diags) != 0 {
		t.Errorf("negative fixture produced %d diagnostics", len(diags))
	}
}

func TestLockOrderScopedOut(t *testing.T) {
	// The same violating code is invisible when the package is outside the
	// analyzer's configured scope.
	p := "fix/lockorder/positive"
	cfg := fixtureLockOrder(p)
	cfg.Packages = []string{"some/other/pkg"}
	_, diags := runFixture(t, p, LockOrder(cfg))
	if len(diags) != 0 {
		t.Errorf("out-of-scope package produced diagnostics: %v", diags)
	}
}

func TestCtxFlowPositive(t *testing.T) {
	pkg, diags := runFixture(t, "fix/ctxflow/positive", CtxFlow(CtxFlowConfig{}))
	checkFixture(t, pkg, diags)
}

func TestCtxFlowNegative(t *testing.T) {
	p := "fix/ctxflow/negative"
	pkg, diags := runFixture(t, p, CtxFlow(CtxFlowConfig{Bless: map[string]bool{p + ".Root": true}}))
	checkFixture(t, pkg, diags)
	if len(diags) != 0 {
		t.Errorf("negative fixture produced %d diagnostics", len(diags))
	}
}

func TestCtxFlowBlessIsLoadBearing(t *testing.T) {
	// Without the blessing, Root's context.Background is a violation — the
	// negative fixture is clean because of the config, not by accident.
	_, diags := runFixture(t, "fix/ctxflow/negative", CtxFlow(CtxFlowConfig{}))
	if len(diags) != 1 {
		t.Fatalf("expected exactly the unblessed Root diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "context.Background") {
		t.Errorf("unexpected message: %s", diags[0].Message)
	}
}

func TestCtxFlowMainExempt(t *testing.T) {
	_, diags := runFixture(t, "fix/ctxflow/mainpkg", CtxFlow(CtxFlowConfig{}))
	if len(diags) != 0 {
		t.Errorf("main package produced diagnostics: %v", diags)
	}
}

func TestWallTimePositive(t *testing.T) {
	p := "fix/walltime/positive"
	pkg, diags := runFixture(t, p, WallTime(WallTimeConfig{Packages: []string{p}}))
	checkFixture(t, pkg, diags)
}

func TestWallTimeNegative(t *testing.T) {
	p := "fix/walltime/negative"
	pkg, diags := runFixture(t, p, WallTime(WallTimeConfig{Packages: []string{p}}))
	checkFixture(t, pkg, diags)
	if len(diags) != 0 {
		t.Errorf("negative fixture produced %d diagnostics", len(diags))
	}
}

func TestWallTimeScopedOut(t *testing.T) {
	// Wall-clock reads are fine in packages whose stats are not CI-gated.
	_, diags := runFixture(t, "fix/walltime/positive", WallTime(WallTimeConfig{Packages: []string{"some/other/pkg"}}))
	if len(diags) != 0 {
		t.Errorf("out-of-scope package produced diagnostics: %v", diags)
	}
}

func fixtureMetricName(importPath string) MetricNameConfig {
	return MetricNameConfig{
		Receivers: map[string]bool{importPath + ".Reg": true},
		Prefixes:  []string{"odserve_"},
		LabelKeys: map[string]bool{"route": true},
	}
}

func TestMetricNamePositive(t *testing.T) {
	p := "fix/metricname/positive"
	pkg, diags := runFixture(t, p, MetricName(fixtureMetricName(p)))
	checkFixture(t, pkg, diags)
}

func TestMetricNameNegative(t *testing.T) {
	p := "fix/metricname/negative"
	pkg, diags := runFixture(t, p, MetricName(fixtureMetricName(p)))
	checkFixture(t, pkg, diags)
	if len(diags) != 0 {
		t.Errorf("negative fixture produced %d diagnostics", len(diags))
	}
}

func TestErrCmpPositive(t *testing.T) {
	pkg, diags := runFixture(t, "fix/errcmp/positive", ErrCmp())
	checkFixture(t, pkg, diags)
}

func TestErrCmpNegative(t *testing.T) {
	pkg, diags := runFixture(t, "fix/errcmp/negative", ErrCmp())
	checkFixture(t, pkg, diags)
	if len(diags) != 0 {
		t.Errorf("negative fixture produced %d diagnostics", len(diags))
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "errcmp", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: [errcmp] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func ExampleDiagnostic() {
	d := Diagnostic{Analyzer: "lockorder", Message: "order violated"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "store.go", 42, 2
	fmt.Println(d)
	// Output: store.go:42:2: [lockorder] order violated
}
