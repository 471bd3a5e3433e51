// Package lint is logmob's in-tree static-analysis framework plus the three
// project analyzers (determinism, pooldiscipline, lockguard) that prove the
// repo's reproducibility contracts at compile time.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape — an
// Analyzer owns named checks and a Run function over a typechecked Pass —
// but is built purely on the standard library (go/parser + go/types, with
// imports resolved through the toolchain's export data) so the module needs
// no external dependencies. cmd/logmoblint is the multichecker driver.
//
// Exemptions are explicit: a `//lint:allow <check> <reason>` comment on the
// offending line (or alone on the line above it) suppresses that check
// there. Directives require a reason, and unused directives are themselves
// reported, so the exemption list stays greppable and honest.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one problem found by an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Check   string
	Message string
}

// Analyzer is one named analysis. Checks lists every check id the analyzer
// can emit; the runner uses it to validate //lint:allow directives.
type Analyzer struct {
	Name   string
	Checks []string
	Run    func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Pkg   *Package
	diags []Diagnostic
}

// Reportf records a diagnostic for check at pos.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Check: check, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expr, or nil.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[expr]; ok {
		return tv.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := p.Pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its types.Object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// Result is a resolved diagnostic, positioned and attributed. It is also
// the JSON schema of cmd/logmoblint -json.
type Result struct {
	Analyzer string `json:"analyzer"`
	Check    string `json:"check"`
	File     string `json:"file"` // as reported by the FileSet (absolute or build-relative)
	Line     int    `json:"line"` // 1-based
	Col      int    `json:"col"`  // 1-based
	Message  string `json:"message"`
}

// directive is one parsed //lint:allow comment. It suppresses matching
// diagnostics on its own line (trailing form) and on the line below
// (standalone form).
type directive struct {
	check  string
	reason string
	file   string
	line   int
	pos    token.Pos
	used   bool
}

// directivePrefix is the comment prefix recognised as a lint directive.
const directivePrefix = "//lint:allow"

// parseDirectives extracts every //lint:allow directive in the package.
// Malformed directives (no check, or no reason) are returned as diagnostics
// under the "directive" pseudo-check so they fail the build rather than
// silently suppressing nothing.
func parseDirectives(pkg *Package) ([]*directive, []Result) {
	var dirs []*directive
	var bad []Result
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				posn := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Result{
						Analyzer: "lint", Check: "directive",
						File: posn.Filename, Line: posn.Line, Col: posn.Column,
						Message: "malformed //lint:allow directive: want \"//lint:allow <check> <reason>\"",
					})
					continue
				}
				dirs = append(dirs, &directive{
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
					file:   posn.Filename,
					line:   posn.Line,
					pos:    c.Pos(),
				})
			}
		}
	}
	return dirs, bad
}

// checks returns the set of check ids the analyzers own.
func checks(analyzers []*Analyzer) map[string]bool {
	set := map[string]bool{}
	for _, a := range analyzers {
		for _, c := range a.Checks {
			set[c] = true
		}
	}
	return set
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics as sorted Results. //lint:allow directives suppress matching
// diagnostics by (check, file, line); a directive that suppresses nothing
// although its analyzer ran, or that names a check no analyzer in All owns,
// is reported itself.
func Run(analyzers []*Analyzer, pkgs []*Package) []Result {
	running, known := checks(analyzers), checks(All())

	var out []Result
	for _, pkg := range pkgs {
		dirs, bad := parseDirectives(pkg)
		out = append(out, bad...)

		type fileLine struct {
			file string
			line int
		}
		byLine := map[fileLine][]*directive{}
		for _, d := range dirs {
			// Trailing form covers its own line; standalone form covers the
			// line below. Registering both keeps the parser source-free.
			for _, k := range []fileLine{{d.file, d.line}, {d.file, d.line + 1}} {
				byLine[k] = append(byLine[k], d)
			}
		}

		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg}
			a.Run(pass)
			for _, diag := range pass.diags {
				posn := pkg.Fset.Position(diag.Pos)
				suppressed := false
				for _, d := range byLine[fileLine{posn.Filename, posn.Line}] {
					if d.check == diag.Check {
						d.used = true
						suppressed = true
					}
				}
				if suppressed {
					continue
				}
				out = append(out, Result{
					Analyzer: a.Name, Check: diag.Check,
					File: posn.Filename, Line: posn.Line, Col: posn.Column,
					Message: diag.Message,
				})
			}
		}

		// Directives for checks the running analyzer set owns must have
		// earned their keep, and a misspelled check suppresses nothing;
		// stale or mistyped exemptions otherwise accumulate silently.
		// Directives for an analyzer this run leaves out are not judged.
		for _, d := range dirs {
			var msg string
			switch {
			case d.used:
				continue
			case !known[d.check]:
				msg = fmt.Sprintf("//lint:allow names unknown check %q", d.check)
			case running[d.check]:
				msg = fmt.Sprintf("unused //lint:allow %s directive: nothing to suppress here", d.check)
			default:
				continue
			}
			posn := pkg.Fset.Position(d.pos)
			out = append(out, Result{
				Analyzer: "lint", Check: "directive",
				File: posn.Filename, Line: posn.Line, Col: posn.Column,
				Message: msg,
			})
		}
	}

	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(
			cmp.Compare(a.File, b.File),
			cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col),
			cmp.Compare(a.Check, b.Check),
			cmp.Compare(a.Message, b.Message),
		)
	})
	return out
}

// All returns the full logmob analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PoolDiscipline, LockGuard}
}
