// Command ledger keeps BENCH_inproc.json, the repository's trajectory of
// in-process benchmark numbers, and gates allocations against it.
//
// A ledger run builds `go test -c` binaries of a fixed list of benchmarks
// for two trees — a base revision, extracted with `git archive` into a
// temporary directory, and the working tree — and runs them alternately,
// 10 pairs at -benchtime 1s, with -benchmem, alternating which side runs
// first. Both are fixed, so that every entry is measured alike. For each
// benchmark it prints the base and head medians of ns/op, the base's
// interquartile range, how many pairs the head won, a two-sided sign-test
// p, B/op, allocs/op and every counter the benchmark reports, and it
// appends one entry to the ledger file recording the commits, the Go
// version, GOMAXPROCS, the CPU model and the kernel:
//
//	go run ./scripts/ledger -base HEAD -label "what changed"
//
// measures the uncommitted working tree against the commit under it; a
// committed change is measured with -base HEAD~1. A time difference is
// resolved by rule, never by eye: the head is "faster" or "slower" only
// when the sign test gives p ≤ 0.05 and the medians differ by more than the
// base's interquartile range; anything else is "unresolved". A benchmark
// the base tree lacks is recorded for the head alone: a new benchmark lands
// in a change of its own, before a change that claims a gain on it. The
// head is recorded as dirty when the working tree differs from its commit,
// untracked files included, since they are built into the head binaries,
// and as head_tree, a SHA-256 over the files the head binaries were built
// from (see treeHash), which names the code an entry measured whether or
// not it was committed.
//
// An entry also records each benchmark's cold allocations: a benchmark pays
// a burst per invocation (its first table, its goroutines, a cold free
// list) on top of a steady cost per op, and a short run averages the burst
// in. Running one binary at two counts separates them:
//
//	marginal = (A₁₁₀₀·1100 − A₁₀₀·100) / 1000
//	burst    = 100·(A₁₀₀ − marginal)
//
// where A_N is allocs/op at -benchtime Nx. Go prints A_N truncated to an
// integer, so the burst is known to about ±110 allocations. A₁₀₀ is the
// least of five runs, each its own process: a garbage collection that
// empties a sync.Pool, or a rank view that loses a race, adds allocations to
// one run and never takes any away, and such additions read as a burst of
// hundreds.
//
// With -check it measures nothing against a base: it runs the head's list
// at -benchtime 100x (five times) and 1100x, at the GOMAXPROCS of the
// newest measured entry, and fails when a benchmark's marginal allocs/op
// exceed that entry's head median by more than the headroom (10 %, and at
// least 2 allocations), or its burst exceeds the entry's cold_allocs by more
// than the burst headroom (50 %, and at least 150 allocations). Benchmarks whose
// allocations follow the scheduler are printed, not gated, and wall clock is
// never gated. It prints whether HEAD's tree is the one the newest entry
// measured; it does not gate on that, since a change may move code without
// claiming a number.
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// list is what the ledger measures: the prove path, the mutate path and the
// discovery path, each in process, layer by layer.
var list = []benchmark{
	{"./internal/prover", "BenchmarkDecideImplied12", false},
	{"./internal/prover", "BenchmarkDecideSplitRefuted", false},
	{"./internal/catalog", "BenchmarkCatalogImpliesClosure", false},
	{"./internal/server", "BenchmarkProveClosureHit", false},
	{"./pkg/odclient", "BenchmarkLoopbackFloor", true},
	{"./internal/catalog", "BenchmarkApplyChurn320", false},
	{"./internal/catalog", "BenchmarkApplyDense8x40", false},
	{"./internal/router", "BenchmarkApplyBatchConcurrent", true},
	{"./internal/core", "BenchmarkSortCacheRefine", false},
	{"./internal/core", "BenchmarkSortCacheProbe", false},
	{"./internal/core", "BenchmarkSortOneColumn", false},
	{"./internal/discover", "BenchmarkCheckScanDateDim", false},
	{"./internal/discover", "BenchmarkPipelineDateDim", false},
	{"./internal/discover", "BenchmarkPipelineRandom4000x6", false},
	{"./internal/server", "BenchmarkDiscoverDecode", false},
	{"./internal/server", "BenchmarkDiscoverRequest", false},
	{"./internal/server", "BenchmarkDiscoverLoopback", true},
}

// benchmark is one entry of the list. scheduled says its allocations follow
// the scheduler — how many records a group commit gathers, what net/http's
// connection goroutines allocate — so the check prints them and gates
// nothing on them.
type benchmark struct {
	pkg, name string
	scheduled bool
}

// The check's headroom over the ledger's allocs/op, for the marginal cost of
// an op, and over its cold_allocs, for the burst: the burst is read through
// truncated averages (about ±110 allocations) and follows the free lists'
// and the runtime's warm-up, so its headroom is wider.
const (
	headroomRatio  = 0.10
	headroomAllocs = 2
	burstRatio     = 0.50
	burstAllocs    = 150
)

// The two iteration counts the burst is separated at, and how many
// processes run the short one.
const (
	shortRun  = 100
	longRun   = 1100
	shortRuns = 5
)

// Every entry is measured alike: ten pairs, where a sign test reads p ≤ 0.05
// at nine wins of ten (below six pairs no result can), each run timed for a
// second.
const (
	pairs     = 10
	benchtime = "1s"
)

func main() {
	base := flag.String("base", "HEAD", "the revision the working tree is measured against")
	label := flag.String("label", "", "what the entry measures, in a few words")
	check := flag.Bool("check", false, "run the head once at -benchtime 100x and gate allocs/op against the ledger")
	flag.Parse()

	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		fail(err)
	}
	out := filepath.Join(root, "BENCH_inproc.json")
	tmp, err := os.MkdirTemp("", "ledger-")
	if err != nil {
		fail(err)
	}
	if *check {
		err = runCheck(root, tmp, out, list)
	} else {
		var e *Entry
		if e, err = measure(root, tmp, *base, list); err == nil {
			e.Label = *label
			printEntry(os.Stdout, e)
			err = appendEntry(out, e)
		}
	}
	os.RemoveAll(tmp) // the binaries and the base tree, whatever happened
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	os.Exit(1)
}

// Ledger is the file: its entries, oldest first.
type Ledger struct {
	Entries []Entry `json:"entries"`
}

// Entry is one measurement of a change, or one back-filled from the prose of
// CHANGES.md (Source "changes.md", with whatever figures the prose gave).
type Entry struct {
	Label     string   `json:"label"`
	Source    string   `json:"source"` // "ledger" or "changes.md"
	Date      string   `json:"date,omitempty"`
	Base      string   `json:"base,omitempty"`       // the base commit
	Head      string   `json:"head,omitempty"`       // the commit under the head tree
	HeadDirty bool     `json:"head_dirty,omitempty"` // the head tree differed from that commit
	HeadTree  string   `json:"head_tree,omitempty"`  // treeHash of the head tree
	Env       *Env     `json:"env,omitempty"`
	Pairs     int      `json:"pairs,omitempty"`
	Benchtime string   `json:"benchtime,omitempty"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// Env is the machine an entry was measured on.
type Env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

// Result is one benchmark (sub-benchmarks apart) across the pairs.
type Result struct {
	Pkg  string `json:"pkg,omitempty"`
	Name string `json:"name"`
	// NsOp compares the time per op; the other metrics are medians by unit,
	// allocs/op and B/op among them. A side the benchmark did not run on is
	// absent.
	NsOp    *Comparison        `json:"ns_op,omitempty"`
	Base    map[string]float64 `json:"base,omitempty"`
	Head    map[string]float64 `json:"head,omitempty"`
	Verdict string             `json:"verdict,omitempty"` // of ns/op: faster, slower or unresolved
	// ColdAllocs is the head's burst per invocation, from one run at each
	// of the two counts.
	ColdAllocs *float64 `json:"cold_allocs,omitempty"`
}

// Comparison is one metric's distribution on each side and the sign test
// over the pairs.
type Comparison struct {
	BaseMedian float64 `json:"base_median"`
	BaseIQR    float64 `json:"base_iqr"`
	HeadMedian float64 `json:"head_median"`
	HeadIQR    float64 `json:"head_iqr"`
	Wins       int     `json:"wins"`   // pairs the head was lower in
	Losses     int     `json:"losses"` // pairs it was higher in
	P          float64 `json:"p"`      // two-sided sign test
}

// sample is one run's figures for one (sub-)benchmark, by unit.
type sample map[string]float64

// measure builds both trees and runs the pairs.
func measure(root, tmp, base string, benches []benchmark) (*Entry, error) {
	baseCommit, err := git(root, "rev-parse", base)
	if err != nil {
		return nil, err
	}
	headCommit, err := git(root, "rev-parse", "HEAD")
	if err != nil {
		return nil, err
	}
	status, err := git(root, "status", "--porcelain")
	if err != nil {
		return nil, err
	}
	baseTree := filepath.Join(tmp, "base")
	if err := extract(root, baseCommit, baseTree); err != nil {
		return nil, err
	}
	tree, err := treeHash(root, benches)
	if err != nil {
		return nil, err
	}
	e := &Entry{
		Source: "ledger", Date: time.Now().UTC().Format(time.RFC3339),
		Base: baseCommit, Head: headCommit, HeadDirty: status != "", HeadTree: tree,
		Env: env(), Pairs: pairs, Benchtime: benchtime,
	}
	heads, err := buildAll(root, filepath.Join(tmp, "head"), benches)
	if err != nil {
		return nil, err
	}
	bases, err := buildAll(baseTree, filepath.Join(tmp, "bin-base"), benches)
	if err != nil {
		return nil, err
	}

	bins := map[string]map[string]string{"base": bases, "head": heads}
	trees := map[string]string{"base": baseTree, "head": root}
	has := map[string]bool{} // side + name
	for side, byPkg := range bins {
		for _, b := range benches {
			has[side+b.name] = listed(byPkg[b.pkg], b.name)
		}
	}
	runs := map[string]map[string][]sample{"base": {}, "head": {}}
	var order []string // result names in the order first seen
	seen := map[string]bool{}
	args := []string{"-test.benchtime", benchtime}
	for p := range pairs {
		for _, b := range benches {
			sides := []string{"base", "head"}
			if p%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, side := range sides {
				if !has[side+b.name] {
					continue
				}
				got, err := run(bins[side][b.pkg], filepath.Join(trees[side], b.pkg), b.name, args)
				if err != nil {
					return nil, err
				}
				for _, name := range sortedKeys(got) {
					if !seen[name] {
						seen[name] = true
						order = append(order, name)
					}
					runs[side][name] = append(runs[side][name], got[name])
				}
			}
		}
		fmt.Fprintf(os.Stderr, "ledger: pair %d of %d done\n", p+1, pairs)
	}
	pkgOf := map[string]string{}
	for _, b := range benches {
		for _, name := range order {
			if name == b.name || strings.HasPrefix(name, b.name+"/") {
				pkgOf[name] = b.pkg
			}
		}
	}
	split, err := splitAll(root, heads, benches, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		r := summarize(pkgOf[name], name, runs["base"][name], runs["head"][name])
		if a, ok := split[name]; ok {
			r.ColdAllocs = &a.burst
		}
		e.Results = append(e.Results, r)
	}
	return e, nil
}

// allocSplit is one benchmark's allocations per op separated into the
// steady cost of an op and the burst of an invocation.
type allocSplit struct {
	marginal, burst float64
}

// splitAllocs separates the two from allocs/op at shortRun and longRun
// iterations.
func splitAllocs(short, long float64) allocSplit {
	m := (long*longRun - short*shortRun) / (longRun - shortRun)
	return allocSplit{marginal: m, burst: shortRun * (short - m)}
}

// splitAll runs every benchmark of the list at both counts, with the extra
// flags — the short count shortRuns times, keeping the least — and splits
// each result's allocations.
func splitAll(root string, bins map[string]string, benches []benchmark, extra []string) (map[string]allocSplit, error) {
	out := map[string]allocSplit{}
	for _, b := range benches {
		runAt := func(n int) (map[string]sample, error) {
			args := append([]string{"-test.benchtime", strconv.Itoa(n) + "x"}, extra...)
			return run(bins[b.pkg], filepath.Join(root, b.pkg), b.name, args)
		}
		long, err := runAt(longRun)
		if err != nil {
			return nil, err
		}
		short := map[string]float64{}
		for range shortRuns {
			got, err := runAt(shortRun)
			if err != nil {
				return nil, err
			}
			for name, s := range got {
				if a, ok := short[name]; !ok || s["allocs/op"] < a {
					short[name] = s["allocs/op"]
				}
			}
		}
		for name, a := range short {
			if l, ok := long[name]; ok {
				out[name] = splitAllocs(a, l["allocs/op"])
			}
		}
	}
	return out, nil
}

// treeHash is a SHA-256 over what the list's binaries are built from: the
// sorted paths and contents of go.mod, go.sum and every Go file of the
// listed packages' directories, as the files stand under root, untracked
// ones included. It reads the files and writes nothing, .git included.
func treeHash(root string, benches []benchmark) (string, error) {
	paths := []string{"go.mod", "go.sum"}
	seen := map[string]bool{}
	for _, b := range benches {
		if seen[b.pkg] {
			continue
		}
		seen[b.pkg] = true
		files, err := filepath.Glob(filepath.Join(root, b.pkg, "*.go"))
		if err != nil {
			return "", err
		}
		for _, f := range files {
			rel, err := filepath.Rel(root, f)
			if err != nil {
				return "", err
			}
			paths = append(paths, filepath.ToSlash(rel))
		}
	}
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(p)))
		if errors.Is(err, os.ErrNotExist) && p == "go.sum" {
			continue // a module without dependencies has none
		}
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// summarize reduces one benchmark's runs: medians of every unit, and the
// paired comparison of ns/op where both sides ran as often.
func summarize(pkg, name string, base, head []sample) Result {
	r := Result{Pkg: pkg, Name: name, Base: medians(base), Head: medians(head)}
	if len(base) > 0 && len(base) == len(head) {
		b, h := column(base, "ns/op"), column(head, "ns/op")
		c := compare(b, h)
		r.NsOp = &c
		r.Verdict = verdict(c)
		delete(r.Base, "ns/op")
		delete(r.Head, "ns/op")
	}
	return r
}

// compare sets the two sides' distributions side by side and counts the
// pairs, the i-th base run against the i-th head run.
func compare(base, head []float64) Comparison {
	c := Comparison{
		BaseMedian: quantile(base, 0.5), BaseIQR: quantile(base, 0.75) - quantile(base, 0.25),
		HeadMedian: quantile(head, 0.5), HeadIQR: quantile(head, 0.75) - quantile(head, 0.25),
	}
	for i := range min(len(base), len(head)) {
		switch {
		case head[i] < base[i]:
			c.Wins++
		case head[i] > base[i]:
			c.Losses++
		}
	}
	c.P = signTest(c.Wins, c.Losses)
	return c
}

// verdict is the rule that resolves a time difference: a sign test at
// p ≤ 0.05 and medians further apart than the base's interquartile range.
func verdict(c Comparison) string {
	if c.P > 0.05 || math.Abs(c.HeadMedian-c.BaseMedian) <= c.BaseIQR {
		return "unresolved"
	}
	if c.HeadMedian < c.BaseMedian {
		return "faster"
	}
	return "slower"
}

// signTest is the two-sided binomial p of wins against losses, ties
// dropped.
func signTest(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += math.Exp(lchoose(n, i) - float64(n)*math.Ln2)
	}
	return min(1, 2*tail)
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// quantile interpolates linearly between the order statistics; no data is
// NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func column(runs []sample, unit string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, s := range runs {
		out = append(out, s[unit])
	}
	return out
}

func medians(runs []sample) map[string]float64 {
	if len(runs) == 0 {
		return nil
	}
	out := map[string]float64{}
	for unit := range runs[0] {
		out[unit] = quantile(column(runs, unit), 0.5)
	}
	return out
}

// benchLine matches a result line of `go test -bench`: the name, with the
// GOMAXPROCS suffix when it is not 1, the iteration count, then value/unit
// pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseOutput reads every result line of a benchmark binary's output.
func parseOutput(out []byte) (map[string]sample, error) {
	got := map[string]sample{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		f := strings.Fields(m[3])
		if len(f)%2 != 0 {
			return nil, fmt.Errorf("unreadable result line %q", sc.Text())
		}
		s := sample{}
		for i := 0; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("unreadable result line %q: %w", sc.Text(), err)
			}
			s[f[i+1]] = v
		}
		got[m[1]] = s
	}
	return got, sc.Err()
}

// run runs one benchmark of a test binary in its package directory.
func run(bin, dir, name string, extra []string) (map[string]sample, error) {
	args := append([]string{"-test.run", "^$", "-test.bench", "^" + name + "$", "-test.benchmem", "-test.count", "1", "-test.timeout", "10m"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), name, err, out)
	}
	got, err := parseOutput(out)
	if err == nil && len(got) == 0 {
		err = fmt.Errorf("%s %s: no result line\n%s", filepath.Base(bin), name, out)
	}
	return got, err
}

// listed reports whether the binary has the benchmark.
func listed(bin, name string) bool {
	out, err := exec.Command(bin, "-test.list", "^"+name+"$").Output()
	return err == nil && slices.Contains(strings.Fields(string(out)), name)
}

// buildAll builds one test binary per package of the list from the tree at
// root, into dir, and returns them by package.
func buildAll(root, dir string, benches []benchmark) (map[string]string, error) {
	bins := map[string]string{}
	for _, b := range benches {
		if bins[b.pkg] != "" {
			continue
		}
		bin, err := build(root, dir, b.pkg)
		if err != nil {
			return nil, err
		}
		bins[b.pkg] = bin
	}
	return bins, nil
}

func build(root, dir, pkg string) (string, error) {
	bin := filepath.Join(dir, strings.ReplaceAll(strings.TrimPrefix(pkg, "./"), "/", "_")+".test")
	cmd := exec.Command("go", "test", "-c", "-o", bin, pkg)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go test -c %s in %s: %w\n%s", pkg, root, err, out)
	}
	return bin, nil
}

// extract writes the tree of rev into dir.
func extract(root, rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir = root
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	tr := tar.NewReader(out)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("git archive: %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			var b []byte
			if b, err = io.ReadAll(tr); err == nil {
				if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
					err = os.WriteFile(path, b, os.FileMode(h.Mode)&0o777)
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return cmd.Wait()
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// env describes the machine, from what the kernel and the toolchain say.
func env() *Env {
	e := &Env{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Kernel: "unknown"}
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		e.Go = strings.TrimSpace(string(v))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// printEntry writes the entry as a table.
func printEntry(w io.Writer, e *Entry) {
	fmt.Fprintf(w, "base %.12s  head %.12s (dirty %v, tree %.12s)  %s, GOMAXPROCS %d, %s, %s\n",
		e.Base, e.Head, e.HeadDirty, e.HeadTree, e.Env.Go, e.Env.GOMAXPROCS, e.Env.CPU, e.Env.Kernel)
	fmt.Fprintf(w, "%d pairs at -benchtime %s\n\n", e.Pairs, e.Benchtime)
	for _, r := range e.Results {
		fmt.Fprintf(w, "%s\n", r.Name)
		if c := r.NsOp; c != nil {
			fmt.Fprintf(w, "  ns/op      %12.0f → %12.0f  (%+.1f %%)  base IQR %.0f, head won %d/%d, p %.3f: %s\n",
				c.BaseMedian, c.HeadMedian, 100*(c.HeadMedian/c.BaseMedian-1), c.BaseIQR,
				c.Wins, e.Pairs, c.P, r.Verdict)
		} else {
			fmt.Fprintf(w, "  ns/op      %12.0f   (head only)\n", r.Head["ns/op"])
		}
		if r.ColdAllocs != nil {
			fmt.Fprintf(w, "  %-10s %12s   %12.0f\n", "cold", "", *r.ColdAllocs)
		}
		for _, unit := range sortedKeys(r.Head) {
			if unit == "ns/op" {
				continue
			}
			if b, ok := r.Base[unit]; ok {
				fmt.Fprintf(w, "  %-10s %12.6g → %12.6g\n", unit, b, r.Head[unit])
			} else {
				fmt.Fprintf(w, "  %-10s %12s   %12.6g\n", unit, "", r.Head[unit])
			}
		}
	}
}

func readLedger(path string) (*Ledger, error) {
	l := &Ledger{}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func appendEntry(path string, e *Entry) error {
	l, err := readLedger(path)
	if err != nil {
		return err
	}
	l.Entries = append(l.Entries, *e)
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runCheck is the CI gate: the head's list at both counts, each benchmark's
// marginal allocs/op against the newest measured entry's head median and its
// burst against the entry's cold_allocs.
func runCheck(root, tmp, path string, benches []benchmark) error {
	l, err := readLedger(path)
	if err != nil {
		return err
	}
	var last *Entry
	for i := range l.Entries {
		if l.Entries[i].Source == "ledger" {
			last = &l.Entries[i]
		}
	}
	if last == nil {
		return fmt.Errorf("%s holds no measured entry to check against", path)
	}
	headTree := filepath.Join(tmp, "HEAD")
	if err := extract(root, "HEAD", headTree); err != nil {
		return err
	}
	tree, err := treeHash(headTree, benches)
	if err != nil {
		return err
	}
	if tree == last.HeadTree {
		fmt.Printf("HEAD's tree %.12s is the one the %q entry measured\n", tree, last.Label)
	} else {
		fmt.Printf("HEAD's tree %.12s is not the one the %q entry measured (%.12s)\n", tree, last.Label, last.HeadTree)
	}
	want := map[string]Result{}
	for _, r := range last.Results {
		want[r.Name] = r
	}
	bins, err := buildAll(root, filepath.Join(tmp, "head"), benches)
	if err != nil {
		return err
	}
	// The pipeline's goroutines, and what they allocate, follow GOMAXPROCS.
	got, err := splitAll(root, bins, benches, []string{"-test.cpu", strconv.Itoa(last.Env.GOMAXPROCS)})
	if err != nil {
		return err
	}
	var over []string
	for _, b := range benches {
		for _, name := range sortedKeys(got) {
			if name != b.name && !strings.HasPrefix(name, b.name+"/") {
				continue
			}
			r, ok := want[name]
			status := gate(got[name], r, b.scheduled)
			if !ok {
				status = "not in the ledger"
			}
			if strings.HasPrefix(status, "OVER") {
				over = append(over, name)
			}
			fmt.Printf("%-45s %8.1f allocs/op, ledger %.0f, limit %.0f; burst %6.0f, ledger %s: %s\n",
				name, got[name].marginal, r.Head["allocs/op"], marginalLimit(r.Head["allocs/op"]),
				got[name].burst, coldOf(r), status)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("allocations over the ledger's %q entry plus headroom: %v", last.Label, over)
	}
	return nil
}

// marginalLimit and burstLimit are the most the check lets a benchmark
// allocate per op and per invocation, given the ledger's figures.
func marginalLimit(allocs float64) float64 {
	return allocs + max(headroomAllocs, headroomRatio*allocs)
}

func burstLimit(cold float64) float64 {
	return cold + max(burstAllocs, burstRatio*cold)
}

// gate judges one benchmark's split against its ledger result: "ok", or why
// it is not gated, or "OVER" and which gate it failed.
func gate(a allocSplit, r Result, scheduled bool) string {
	switch {
	case scheduled:
		return "follows the scheduler, not gated"
	case a.marginal > marginalLimit(r.Head["allocs/op"]):
		return "OVER per op"
	case r.ColdAllocs != nil && a.burst > burstLimit(*r.ColdAllocs):
		return "OVER per invocation"
	case r.ColdAllocs == nil:
		return "ok (no cold_allocs in the ledger)"
	}
	return "ok"
}

// coldOf renders a result's cold_allocs and its limit.
func coldOf(r Result) string {
	if r.ColdAllocs == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f, limit %.0f", *r.ColdAllocs, burstLimit(*r.ColdAllocs))
}
