// Package directive parses the //autovet: comment directives that the
// autovet analyzers (see autorte/internal/analysis) understand, and
// implements the shared suppression bookkeeping:
//
//	//autovet:allow <analyzer> [reason...]
//
// placed at the end of a line suppresses that analyzer's diagnostics on
// the same line; placed alone on a line it suppresses diagnostics on the
// line below. Every allow directive must actually suppress something —
// a stale directive on a clean line is itself reported by the analyzer
// it names, so suppressions cannot silently outlive the code they
// excused.
//
//	//autovet:nilsafe
//
// on a type declaration opts the type into the nilsafe analyzer's
// nil-receiver-guard contract.
//
//	//autovet:bounded <reason>
//
// on a struct type declaration or an individual struct field marks its
// growth as bounded by design (ring-capped, sized by the static model),
// exempting appends that feed it from the bounded analyzer. The reason
// is mandatory: a bound that cannot be stated in a sentence is not a
// bound.
//
// The package also exports Analyzer ("autovetdirective"), which
// validates directive syntax: unknown verbs, missing or unknown
// analyzer names, and misplaced nilsafe markers are all diagnosed so a
// typo cannot silently disable enforcement.
package directive

import (
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Prefix introduces an autovet directive comment.
const Prefix = "//autovet:"

// Verbs understood by the suite.
const (
	VerbAllow   = "allow"
	VerbNilsafe = "nilsafe"
	// VerbBounded marks a struct type or field whose growth is bounded by
	// design (a ring, a model-sized registry): the bounded analyzer then
	// exempts appends that feed it. The marker must carry a reason.
	VerbBounded = "bounded"
)

// Analyzers that may be named in an allow directive. The directive
// analyzer itself cannot be suppressed.
var KnownAnalyzers = []string{
	"baregoroutine", "bounded", "detrange", "e2eflow", "errreport",
	"kindswitch", "lockorder", "nilsafe", "walltime",
}

// A Directive is one parsed //autovet: comment.
type Directive struct {
	Pos     token.Pos // position of the comment
	Verb    string    // e.g. "allow"; empty when only the prefix was written
	Args    []string  // fields after the verb ("// ..." trailers stripped)
	OwnLine bool      // the comment is the only thing on its line
}

// Analyzer named by an allow directive (first argument), or "".
func (d Directive) Analyzer() string {
	if d.Verb == VerbAllow && len(d.Args) > 0 {
		return d.Args[0]
	}
	return ""
}

// parseComment returns the directive in c, if any. A trailing nested
// comment ("//autovet:allow walltime // want ...") is stripped so
// directives compose with analysistest-style expectations.
func parseComment(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, Prefix) {
		return Directive{}, false
	}
	body := c.Text[len(Prefix):]
	if i := strings.Index(body, "//"); i >= 0 {
		body = body[:i]
	}
	fields := strings.Fields(body)
	d := Directive{Pos: c.Pos()}
	if len(fields) > 0 {
		d.Verb = fields[0]
		d.Args = fields[1:]
	}
	return d, true
}

// readLine returns the source text of the line containing pos, using
// read (falling back to os.ReadFile when read is nil).
func readLine(fset *token.FileSet, read func(string) ([]byte, error), pos token.Pos) (string, bool) {
	p := fset.Position(pos)
	if read == nil {
		read = os.ReadFile
	}
	src, err := read(p.Filename)
	if err != nil {
		return "", false
	}
	lines := strings.Split(string(src), "\n")
	if p.Line-1 < 0 || p.Line-1 >= len(lines) {
		return "", false
	}
	return lines[p.Line-1], true
}

// ParseFile extracts every //autovet: directive from f. OwnLine is
// computed from the raw source via read (typically pass.ReadFile).
func ParseFile(fset *token.FileSet, f *ast.File, read func(string) ([]byte, error)) []Directive {
	var out []Directive
	for _, g := range f.Comments {
		for _, c := range g.List {
			d, ok := parseComment(c)
			if !ok {
				continue
			}
			if line, ok := readLine(fset, read, d.Pos); ok {
				col := fset.Position(d.Pos).Column
				d.OwnLine = strings.TrimSpace(line[:min(col-1, len(line))]) == ""
			}
			out = append(out, d)
		}
	}
	return out
}

type allowEntry struct {
	dir  Directive
	used bool
}

// Allow tracks the //autovet:allow directives for one analyzer across
// the files it checks, answers suppression queries, and reports stale
// directives that excused nothing.
type Allow struct {
	pass *analysis.Pass
	name string
	// filename -> suppressed line -> entry
	byLine map[string]map[int]*allowEntry
}

// CollectAllow gathers the allow directives naming analyzer from files.
// Pass exactly the files the analyzer actually checks: directives in
// skipped files (e.g. tests) are then neither honoured nor reported.
func CollectAllow(pass *analysis.Pass, analyzer string, files []*ast.File) *Allow {
	a := &Allow{pass: pass, name: analyzer, byLine: map[string]map[int]*allowEntry{}}
	for _, f := range files {
		for _, d := range ParseFile(pass.Fset, f, pass.ReadFile) {
			if d.Analyzer() != analyzer {
				continue
			}
			p := pass.Fset.Position(d.Pos)
			line := p.Line
			if d.OwnLine {
				line++ // a directive alone on a line excuses the next line
			}
			m := a.byLine[p.Filename]
			if m == nil {
				m = map[int]*allowEntry{}
				a.byLine[p.Filename] = m
			}
			m[line] = &allowEntry{dir: d}
		}
	}
	return a
}

// Suppressed reports whether a diagnostic at pos is excused by an allow
// directive, marking the directive as used.
func (a *Allow) Suppressed(pos token.Pos) bool {
	p := a.pass.Fset.Position(pos)
	if e := a.byLine[p.Filename][p.Line]; e != nil {
		e.used = true
		return true
	}
	return false
}

// Reportf emits a diagnostic unless an allow directive excuses it.
func (a *Allow) Reportf(pos token.Pos, format string, args ...any) {
	if a.Suppressed(pos) {
		return
	}
	a.pass.Reportf(pos, format, args...)
}

// ReportUnused reports every collected directive that suppressed
// nothing. Call it after the analyzer has visited all files.
func (a *Allow) ReportUnused() {
	var stale []*allowEntry
	for _, m := range a.byLine {
		for _, e := range m {
			if !e.used {
				stale = append(stale, e)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].dir.Pos < stale[j].dir.Pos })
	for _, e := range stale {
		a.pass.Reportf(e.dir.Pos, "unused //autovet:allow %s directive: nothing on this line to suppress", a.name)
	}
}

// Analyzer validates //autovet: directive syntax.
var Analyzer = &analysis.Analyzer{
	Name: "autovetdirective",
	Doc: "check that //autovet: directives are well-formed\n\n" +
		"A mistyped directive would silently fail to suppress (or opt in) and\n" +
		"erode trust in the suite, so unknown verbs, missing or unknown\n" +
		"analyzer names, and nilsafe markers that are not attached to a type\n" +
		"declaration are reported here.",
	Run: runDirective,
}

func runDirective(pass *analysis.Pass) (any, error) {
	known := map[string]bool{}
	for _, n := range KnownAnalyzers {
		known[n] = true
	}
	for _, f := range pass.Files {
		// Positions of comments attached to type declarations, where a
		// nilsafe marker is legitimate; bounded markers may additionally
		// sit on individual struct fields.
		typeDocs := map[token.Pos]bool{}
		fieldDocs := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				if n.Tok != token.TYPE {
					return true
				}
				markGroup(typeDocs, n.Doc)
				for _, spec := range n.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						markGroup(typeDocs, ts.Doc)
						markGroup(typeDocs, ts.Comment)
					}
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					markGroup(fieldDocs, fld.Doc)
					markGroup(fieldDocs, fld.Comment)
				}
			}
			return true
		})
		for _, d := range ParseFile(pass.Fset, f, pass.ReadFile) {
			switch d.Verb {
			case "":
				pass.Reportf(d.Pos, "autovet directive is missing a verb (expected //autovet:allow or //autovet:nilsafe)")
			case VerbAllow:
				if len(d.Args) == 0 {
					pass.Reportf(d.Pos, "//autovet:allow needs an analyzer name (one of %s)", strings.Join(KnownAnalyzers, ", "))
				} else if !known[d.Args[0]] {
					pass.Reportf(d.Pos, "unknown analyzer %q in //autovet:allow (known: %s)", d.Args[0], strings.Join(KnownAnalyzers, ", "))
				}
			case VerbNilsafe:
				if !typeDocs[d.Pos] {
					pass.Reportf(d.Pos, "//autovet:nilsafe must be part of a type declaration's comment")
				}
			case VerbBounded:
				if !typeDocs[d.Pos] && !fieldDocs[d.Pos] {
					pass.Reportf(d.Pos, "//autovet:bounded must be part of a type declaration's or struct field's comment")
				} else if len(d.Args) == 0 {
					pass.Reportf(d.Pos, "//autovet:bounded needs a reason stating the bound")
				}
			default:
				pass.Reportf(d.Pos, "unknown autovet directive verb %q (expected %s, %s or %s)", d.Verb, VerbAllow, VerbBounded, VerbNilsafe)
			}
		}
	}
	return nil, nil
}

func markGroup(set map[token.Pos]bool, g *ast.CommentGroup) {
	if g == nil {
		return
	}
	for _, c := range g.List {
		set[c.Pos()] = true
	}
}

// NilsafeMarked returns the names of types in f whose declaration
// carries a //autovet:nilsafe marker.
func NilsafeMarked(f *ast.File) map[string]bool {
	marked := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			return true
		}
		declMarked := hasNilsafe(gd.Doc)
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if declMarked || hasNilsafe(ts.Doc) || hasNilsafe(ts.Comment) {
				marked[ts.Name.Name] = true
			}
		}
		return true
	})
	return marked
}

func hasNilsafe(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if d, ok := parseComment(c); ok && d.Verb == VerbNilsafe {
			return true
		}
	}
	return false
}
