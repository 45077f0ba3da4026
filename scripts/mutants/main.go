// Command mutants plants each mutant of testdata/mutants in a copy of the
// module and requires the tests it names to kill it:
//
//	go run ./scripts/mutants
//
// A mutant is a file of `#` comment lines, then `file:` (the source file it
// edits, from the module root), `killers:` (a package and a regexp of test
// names), `tags:` (build tags the killers run under, if any) and `rate:`
// lines, then a `--- old` block and a `--- new` block. The old block must
// occur exactly once in the file. The runner copies the module's files (the
// ones git tracks, and untracked ones it does not ignore) into a temporary
// directory, checks that the killers pass on the unpatched copy, then, one
// mutant at a time, replaces the old block with the new one, runs only the
// killers with -count=1 and requires a test to fail — a mutant that does not
// build is reported, not counted as killed — and restores the file. It exits
// non-zero when any mutant survives or any check fails.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// mutant is one parsed file of testdata/mutants.
type mutant struct {
	name, file, pkg, tests, tags, old, repl string
}

func main() {
	root, err := output(".", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		fail(err)
	}
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "mutants", "*.txt"))
	if err != nil {
		fail(err)
	}
	var ms []mutant
	for _, p := range paths {
		m, err := parse(p)
		if err != nil {
			fail(err)
		}
		ms = append(ms, m)
	}
	tmp, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		fail(err)
	}
	err = runAll(root, tmp, ms)
	os.RemoveAll(tmp)
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mutants:", err)
	os.Exit(1)
}

// parse reads one mutant file.
func parse(path string) (mutant, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return mutant{}, err
	}
	m := mutant{name: filepath.Base(path)}
	var block *[]string
	var old, repl []string
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		switch {
		case line == "--- old":
			block = &old
		case line == "--- new":
			block = &repl
		case block != nil:
			*block = append(*block, line)
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "file:"):
			m.file = strings.TrimSpace(strings.TrimPrefix(line, "file:"))
		case strings.HasPrefix(line, "killers:"):
			f := strings.Fields(strings.TrimPrefix(line, "killers:"))
			if len(f) != 2 {
				return m, fmt.Errorf("%s: killers is a package and a test regexp", m.name)
			}
			m.pkg, m.tests = f[0], f[1]
		case strings.HasPrefix(line, "tags:"):
			m.tags = strings.TrimSpace(strings.TrimPrefix(line, "tags:"))
		case strings.HasPrefix(line, "rate:"):
		default:
			return m, fmt.Errorf("%s: unexpected line %q", m.name, line)
		}
	}
	m.old, m.repl = strings.Join(old, "\n"), strings.Join(repl, "\n")
	if m.file == "" || m.pkg == "" || len(old) == 0 {
		return m, fmt.Errorf("%s: a mutant names its file, its killers and an old block", m.name)
	}
	return m, nil
}

// runAll copies the module into tmp and judges every mutant there.
func runAll(root, tmp string, ms []mutant) error {
	files, err := output(root, "git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return err
	}
	for _, f := range strings.Split(strings.TrimRight(files, "\x00"), "\x00") {
		b, err := os.ReadFile(filepath.Join(root, f))
		if os.IsNotExist(err) {
			continue // deleted in the working tree
		}
		if err != nil {
			return err
		}
		dst := filepath.Join(tmp, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			return err
		}
	}
	passed := map[string]bool{} // package, tags and tests the unpatched copy passed
	var survivors []string
	for _, m := range ms {
		src := filepath.Join(tmp, m.file)
		orig, err := os.ReadFile(src)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		if n := bytes.Count(orig, []byte(m.old)); n != 1 {
			return fmt.Errorf("%s: the old block occurs %d times in %s, want once", m.name, n, m.file)
		}
		key := m.pkg + " " + m.tags + " " + m.tests
		if !passed[key] {
			if out, err := killers(tmp, m); err != nil {
				return fmt.Errorf("%s: the killers fail on the unpatched tree: %w\n%s", m.name, err, out)
			}
			passed[key] = true
		}
		if err := os.WriteFile(src, bytes.Replace(orig, []byte(m.old), []byte(m.repl), 1), 0o644); err != nil {
			return err
		}
		out, err := killers(tmp, m)
		if werr := os.WriteFile(src, orig, 0o644); werr != nil {
			return werr
		}
		switch {
		case err == nil:
			fmt.Printf("%-50s SURVIVED %s -run %s\n", m.name, m.pkg, m.tests)
			survivors = append(survivors, m.name)
		case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
			return fmt.Errorf("%s: the mutant does not build\n%s", m.name, out)
		default:
			fmt.Printf("%-50s killed by %s -run %s\n", m.name, m.pkg, m.tests)
		}
	}
	if len(survivors) > 0 {
		return fmt.Errorf("mutants survived: %v", survivors)
	}
	return nil
}

// killers runs a mutant's tests in the copy at dir.
func killers(dir string, m mutant) (string, error) {
	args := []string{"test", "-count=1", "-run", "^(" + m.tests + ")$"}
	if m.tags != "" {
		args = append(args, "-tags", m.tags)
	}
	cmd := exec.Command("go", append(args, m.pkg)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
