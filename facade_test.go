package logmob_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeExportsOnlyWhatIsImported keeps logmob.go from regrowing: every
// exported name it declares must be referenced as logmob.Name somewhere a
// downstream user lives — examples/, cmd/, bench/ or a root test other than
// this one. A name nothing imports is deleted, not kept alive by a test
// written to mention it.
func TestFacadeExportsOnlyWhatIsImported(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "logmob.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported names in logmob.go")
	}

	var files []string
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rootTests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rootTests {
		if f != "facade_test.go" {
			files = append(files, f)
		}
	}

	used := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := "" // the name this file imports the facade under
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "logmob" {
				local = "logmob"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var idle []string
	for name := range exported {
		if !used[name] {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("logmob.go exports %d names nothing under examples/, cmd/, bench/ or the root tests references; delete them:\n  %s",
			len(idle), strings.Join(idle, "\n  "))
	}
}
