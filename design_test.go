package fasttrack_bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// packageMapRow matches one row of DESIGN.md §2: a backquoted path, what it
// is, and what it serves.
var packageMapRow = regexp.MustCompile("^\\| `([^`]+)` \\|(.*)\\|(.*)\\|$")

// TestPackageMap holds DESIGN.md §2 to the tree: every cmd/ and internal/
// directory holding non-test Go has a row, every row names a path that
// exists, and every row says what it serves.
func TestPackageMap(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 2. Package map\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 2. Package map\" section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")

	rows := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		m := packageMapRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		path := strings.TrimSuffix(m[1], "/")
		if rows[path] {
			t.Errorf("%s: two rows", path)
		}
		rows[path] = true
		if strings.TrimSpace(m[3]) == "" {
			t.Errorf("%s: empty \"serves\" cell", path)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: row names a path that does not exist", path)
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §2 has no table rows")
	}

	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				if dir := filepath.ToSlash(filepath.Dir(path)); !rows[dir] {
					rows[dir] = true // report each directory once
					t.Errorf("%s holds non-test Go but has no row in DESIGN.md §2", dir)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
