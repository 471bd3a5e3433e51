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

// TestInternalExportsAreReferenced is the facade rule applied one level down:
// an exported top-level name or method declared in a non-test file under
// internal/ must be mentioned by some identifier in the module other than its
// own declaration — internal/, cmd/, examples/, bench/ and _test.go files all
// count. The walk is syntactic (go/parser, no type information), so it
// matches by name: it cannot tell two methods called Stats apart, and it can
// only under-report. What it reports is certain: nothing in the repository
// spells the name, so the declaration is deleted, not kept alive by a test
// written to mention it. Methods the standard library calls through an
// interface (sort, container/heap, fmt, error, errors) are spelled by no one
// and are exempt.
func TestInternalExportsAreReferenced(t *testing.T) {
	fset := token.NewFileSet()
	calledByStdlib := map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "String": true, "Error": true, "Unwrap": true}
	declared := map[*ast.Ident]string{} // declaring identifier -> where
	mentioned := map[string]bool{}      // names spelled anywhere else
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Build output, VCS data and analyzer fixtures are not the module's code.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		files = append(files, f)
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		declare := func(id *ast.Ident) {
			if id.IsExported() {
				declared[id] = fset.Position(id.Pos()).String()
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || !calledByStdlib[d.Name.Name] {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && declared[id] == "" {
				mentioned[id.Name] = true
			}
			return true
		})
	}

	var idle []string
	for id, where := range declared {
		if !mentioned[id.Name] {
			idle = append(idle, where+": "+id.Name)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("internal/ exports %d names nothing in the module references; delete them:\n  %s",
			len(idle), strings.Join(idle, "\n  "))
	}
}
