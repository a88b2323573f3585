package check

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
