package check

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignNamesDeclaredTests keeps DESIGN.md §7 mechanical: every
// backticked Test…, Fuzz… or Check… name in it (a subtest by its
// top-level test) must be declared by some .go file of the repository.
// A test that a row names and that is deleted or renamed fails here,
// instead of leaving the row's invariant silently unenforced.
func TestDesignNamesDeclaredTests(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 7.")
	if !ok {
		t.Fatal("DESIGN.md has no §7")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	named := regexp.MustCompile("`((?:Test|Fuzz|Check)[A-Za-z0-9_]*)(?:/[^`]*)?`").FindAllStringSubmatch(sec, -1)
	if len(named) == 0 {
		t.Fatal("DESIGN.md §7 names no test")
	}

	decl := regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Test|Fuzz|Check)[A-Za-z0-9_]*)\(`)
	declared := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	for _, m := range named {
		name := m[1]
		if seen[name] {
			continue
		}
		seen[name] = true
		if !declared[name] {
			t.Errorf("DESIGN.md §7 names %s, which no .go file declares", name)
		}
	}
	t.Logf("DESIGN.md §7 names %d tests, checkers and fuzzers", len(seen))
}

// TestNightlyJobsNameDeclaredTests keeps the nightly workflow from
// passing while it tests nothing: go test with a -run or -fuzz pattern
// that matches no test exits 0 with "[no tests to run]". Every
// alternative of the pattern each nightly go test line passes must match
// a Test… or Fuzz… function declared in the _test.go files of the
// package the line names (a Fuzz… function, for -fuzz); the one
// exception is -run '^$', which a fuzz job passes to skip the unit
// tests. And the fuzz matrix must list every committed Fuzz… function
// with its package.
func TestNightlyJobsNameDeclaredTests(t *testing.T) {
	root := filepath.Join("..", "..")
	src, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "nightly.yml"))
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(src), "\\\n", " ")

	type fuzzJob struct{ target, pkg string }
	var matrix []fuzzJob
	for _, m := range regexp.MustCompile(`\{target: (\w+), pkg: ([^\s}]+)\}`).FindAllStringSubmatch(text, -1) {
		matrix = append(matrix, fuzzJob{m[1], m[2]})
	}

	// A go test command starts a step's run, a line of a run block or a
	// comment's reproduce line, after any environment assignments.
	command := regexp.MustCompile(`^\s*(?:- run:\s*|#\s*)?(?:[A-Z_]+=\S*\s+)*$`)
	runs := 0
	for _, line := range strings.Split(text, "\n") {
		before, cmd, ok := strings.Cut(line, "go test ")
		if !ok || !command.MatchString(before) {
			continue
		}
		// A line that reads the matrix runs once per entry of it.
		cmds := []string{cmd}
		if strings.Contains(cmd, "${{ matrix.") {
			if len(matrix) == 0 {
				t.Fatalf("nightly.yml: %q reads a matrix that lists no target", strings.TrimSpace(line))
			}
			cmds = nil
			for _, j := range matrix {
				cmds = append(cmds, strings.NewReplacer("${{ matrix.target }}", j.target, "${{ matrix.pkg }}", j.pkg).Replace(cmd))
			}
		}
		for _, cmd := range cmds {
			runs++
			if err := checkNightlyRun(root, cmd); err != nil {
				t.Errorf("nightly.yml: go test %s: %v", cmd, err)
			}
		}
	}
	if runs == 0 {
		t.Fatal("nightly.yml runs no go test")
	}

	listed := make(map[fuzzJob]bool, len(matrix))
	for _, j := range matrix {
		listed[j] = true
	}
	fuzzers := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		names, err := declaredTests(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, name := range names {
			if !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			fuzzers++
			if j := (fuzzJob{name, "./" + filepath.ToSlash(rel)}); !listed[j] {
				t.Errorf("%s (%s) has no job in nightly.yml's fuzz matrix", j.target, j.pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("nightly.yml: %d go test runs checked (reproduce lines in comments too); %d fuzz targets, %d matrix entries", runs, fuzzers, len(matrix))
}

// checkNightlyRun checks one go test command line (the words after "go
// test"): each alternative of its -run and -fuzz patterns matches a
// test declared in one of the packages it names.
func checkNightlyRun(root, cmd string) error {
	args := strings.Fields(cmd)
	var pkgs []string
	patterns := make(map[string]string) // flag → pattern
	for i := 0; i < len(args); i++ {
		a := args[i]
		if strings.HasPrefix(a, "./") {
			pkgs = append(pkgs, a)
			continue
		}
		for _, flag := range []string{"-run", "-fuzz"} {
			if a == flag && i+1 < len(args) {
				i++
				patterns[flag] = strings.Trim(args[i], `'"`)
			} else if v, ok := strings.CutPrefix(a, flag+"="); ok {
				patterns[flag] = strings.Trim(v, `'"`)
			}
		}
	}
	if len(pkgs) == 0 {
		return errors.New("names no package")
	}
	var declared []string
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pkg), "*_test.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			names, err := declaredTests(f)
			if err != nil {
				return err
			}
			declared = append(declared, names...)
		}
	}
	for flag, pattern := range patterns {
		if flag == "-run" && pattern == "^$" {
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				return fmt.Errorf("%s %q: %v", flag, pattern, err)
			}
			if !slices.ContainsFunc(declared, func(name string) bool {
				return (flag == "-run" || strings.HasPrefix(name, "Fuzz")) && re.MatchString(name)
			}) {
				return fmt.Errorf("%s %q: %q matches no test declared in %s", flag, pattern, alt, strings.Join(pkgs, " "))
			}
		}
	}
	return nil
}

// declaredTests returns the Test… and Fuzz… functions a file declares.
func declaredTests(path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, m := range testDecl.FindAllSubmatch(src, -1) {
		names = append(names, string(m[1]))
	}
	return names, nil
}

var testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]*)\(`)
