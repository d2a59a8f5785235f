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

// fieldExemptions are exported struct fields that only their own package's
// tests set but that stay, each with its reason.
var fieldExemptions = map[string]string{
	"internal/faults.Config.Freeze": "its counter stats.FaultCounts.HeldDeliveries is a sim.Result " +
		"field that TestResultDigest hashes, so both leave together at the next sim.Version bump",
}

// TestNoUnusedExports holds ROADMAP aim 2's "code kept only as a test oracle
// lives in _test.go": every exported function or method declared in non-test
// Go under internal/ must be named by some non-test file in the module, or by
// a test file outside its own directory. The check is syntactic: a name used
// anywhere keeps every declaration of that name, so it can miss dead code,
// and a method only the standard library calls must be in implicitMethods.
//
// Exported fields of exported structs under internal/ get the same rule for
// being set: a field its own package's tests set must also be set by some
// non-test file or by another package's tests. A field is set where it is a
// composite-literal key, a selector assigned or incremented (x.F[i] = ...
// included), or the operand of &. Fields with a struct tag are exempt,
// because decoding sets them, and so is each entry of fieldExemptions.
func TestNoUnusedExports(t *testing.T) {
	type decl struct{ dir, pos string }
	decls := map[string][]decl{}      // exported func name → declarations under internal/
	used := map[string]bool{}         // names non-test files reference
	testUsed := map[string][]string{} // name → directories whose tests reference it
	fields := map[string][]decl{}     // exported field name → declarations under internal/
	set := map[string]bool{}          // field names non-test files set
	testSet := map[string][]string{}  // field name → directories whose tests set it
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
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				declared[fd.Name] = true
				if !isTest && fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") &&
					!(fd.Recv != nil && implicitMethods[fd.Name.Name]) {
					decls[fd.Name.Name] = append(decls[fd.Name.Name], decl{dir, fset.Position(fd.Pos()).String()})
				}
			case *ast.GenDecl:
				if isTest || !strings.HasPrefix(dir, "internal/") {
					continue
				}
				for _, spec := range fd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() && fl.Tag == nil &&
								fieldExemptions[dir+"."+ts.Name.Name+"."+id.Name] == "" {
								fields[id.Name] = append(fields[id.Name],
									decl{dir, fset.Position(id.Pos()).String() + ": " + ts.Name.Name + "."})
							}
						}
					}
				}
			}
		}
		// markSet records the field name x sets: x.F, x.F[i] or (x.F), or a
		// bare name (a composite-literal key; elsewhere at worst a variable
		// that shares a field's name, which only keeps that field).
		markSet := func(x ast.Expr) {
			for {
				if ix, ok := x.(*ast.IndexExpr); ok {
					x = ix.X
				} else if p, ok := x.(*ast.ParenExpr); ok {
					x = p.X
				} else {
					break
				}
			}
			var name string
			switch e := x.(type) {
			case *ast.SelectorExpr:
				name = e.Sel.Name
			case *ast.Ident:
				name = e.Name
			default:
				return
			}
			if isTest {
				testSet[name] = append(testSet[name], dir)
			} else {
				set[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if declared[n] {
					return true
				}
				if isTest {
					testUsed[n.Name] = append(testUsed[n.Name], dir)
				} else {
					used[n.Name] = true
				}
			case *ast.KeyValueExpr:
				markSet(n.Key)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markSet(lhs)
				}
			case *ast.IncDecStmt:
				markSet(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSet(n.X)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// onlyOwnTests reports a declaration that no non-test file reaches and
	// no test outside its own directory does either.
	onlyOwnTests := func(d decl, elsewhere []string) bool {
		return !slices.ContainsFunc(elsewhere, func(dir string) bool { return dir != d.dir })
	}
	var unused []string
	for name, ds := range decls {
		if used[name] {
			continue
		}
		for _, d := range ds {
			if onlyOwnTests(d, testUsed[name]) {
				unused = append(unused, d.pos+": "+name)
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file and no other package's tests: delete it or move it into a _test.go file", u)
	}

	var testOnly []string
	for name, ds := range fields {
		if set[name] {
			continue
		}
		for _, d := range ds {
			if slices.Contains(testSet[name], d.dir) && onlyOwnTests(d, testSet[name]) {
				testOnly = append(testOnly, d.pos+name)
			}
		}
	}
	sort.Strings(testOnly)
	for _, f := range testOnly {
		t.Errorf("field %s is set only by its own package's tests: delete it, or exempt it with a reason", f)
	}
}
