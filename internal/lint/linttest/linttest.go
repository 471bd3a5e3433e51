// Package linttest runs lint analyzers over fixture packages and compares
// the diagnostics against `// want "regex"` expectations, in the spirit of
// golang.org/x/tools/go/analysis/analysistest but built on the in-tree
// framework.
//
// A fixture line earns diagnostics with trailing comments:
//
//	time.Now() // want `time\.Now reads the host clock`
//
// Multiple quoted regexes on one comment expect multiple diagnostics on that
// line. Every diagnostic must be wanted and every want must be matched, so
// fixtures document both positives and negatives precisely.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"logmob/internal/lint"
)

// wantRe extracts the quoted or backquoted expectation patterns from a
// `// want ...` comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads the fixture packages rooted at dirs (relative to the module
// root) and checks analyzer a against the fixtures' want comments.
func Run(t *testing.T, a *lint.Analyzer, dirs ...string) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	patterns := make([]string, len(dirs))
	for i, dir := range dirs {
		patterns[i] = "./" + filepath.ToSlash(dir)
	}
	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		t.Fatalf("linttest: load %s: %v", dirs, err)
	}
	results := lint.Run([]*lint.Analyzer{a}, pkgs)

	type want struct {
		re      *regexp.Regexp
		matched bool
		text    string
	}
	wants := map[string][]*want{} // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// The marker may open the comment or trail other content
					// (e.g. a `// guarded by` annotation under test).
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					posn := pkg.Fset.Position(c.Pos())
					for _, q := range wantRe.FindAllString(c.Text[idx+len("// want "):], -1) {
						pat := q
						if q[0] == '"' {
							var err error
							pat, err = strconv.Unquote(q)
							if err != nil {
								t.Fatalf("linttest: %s:%d: bad want pattern %s: %v", posn.Filename, posn.Line, q, err)
							}
						} else {
							pat = strings.Trim(q, "`")
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("linttest: %s:%d: bad want regexp %s: %v", posn.Filename, posn.Line, pat, err)
						}
						key := fmt.Sprintf("%s:%d", posn.Filename, posn.Line)
						wants[key] = append(wants[key], &want{re: re, text: pat})
					}
				}
			}
		}
	}

	for _, r := range results {
		key := fmt.Sprintf("%s:%d", r.File, r.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(r.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d:%d: %s (%s)", r.File, r.Line, r.Col, r.Message, r.Check)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("no diagnostic at %s matching %q", key, w.text)
			}
		}
	}

	// Keep fixtures honest: every package must actually have been loaded.
	if len(pkgs) != len(dirs) {
		t.Fatalf("linttest: fixtures %s loaded %d packages", dirs, len(pkgs))
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}
