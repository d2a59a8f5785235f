package fasttrack_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
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

// implicitMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, encoding.Binary(Un)Marshaler, http.Handler,
// sort and heap, io, flag.Value, errors.Unwrap), so no Go source need name
// them for them to run.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true,
	"Pop": true, "Read": true, "Write": true, "Close": true, "Unwrap": true,
	"Set": true,
}

// TestNoUnusedExports holds ROADMAP aim 2's "code kept only as a test oracle
// lives in _test.go": every exported function or method declared in non-test
// Go under internal/ must be named by some non-test file in the module, or by
// a test file outside its own directory. The check is syntactic: a name used
// anywhere keeps every declaration of that name, so it can miss dead code,
// and a method only the standard library calls must be in implicitMethods.
func TestNoUnusedExports(t *testing.T) {
	type decl struct{ dir, pos string }
	decls := map[string][]decl{}      // exported func name → declarations under internal/
	used := map[string]bool{}         // names non-test files reference
	testUsed := map[string][]string{} // name → directories whose tests reference it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !isTest && fn.Name.IsExported() && strings.HasPrefix(dir, "internal/") &&
				!(fn.Recv != nil && implicitMethods[fn.Name.Name]) {
				decls[fn.Name.Name] = append(decls[fn.Name.Name], decl{dir, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declared[id] {
				return true
			}
			if isTest {
				testUsed[id.Name] = append(testUsed[id.Name], dir)
			} else {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for name, ds := range decls {
		if used[name] {
			continue
		}
		for _, d := range ds {
			external := slices.ContainsFunc(testUsed[name], func(dir string) bool { return dir != d.dir })
			if !external {
				unused = append(unused, d.pos+": "+name)
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file and no other package's tests: delete it or move it into a _test.go file", u)
	}
}
