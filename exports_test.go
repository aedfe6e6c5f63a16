package autorte

// A guard against exported helpers that only their own tests reach. It
// parses every non-test Go file under internal/, cmd/, examples/ and
// rtebench/ and fails when an exported top-level function of an
// internal/ package is referenced by no non-test file other than its own
// declaration. A reference is a selector through the package's import
// (pkg.Func) or a use of the bare name inside the declaring package.
// Functions kept on purpose are listed in unreferencedOK with the reason.

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

// unreferencedOK lists the exported internal/ functions that no non-test
// file calls but that stay, one line of reason each. Key: "<dir>.<Func>",
// with <dir> the package's directory under internal/.
var unreferencedOK = map[string]string{
	"contract.Dominates":     "§3 contract refinement, a paper claim DESIGN.md lists",
	"contract.Export":        "the catalogue exporter, Import's inverse; FuzzImport's round trip runs on it",
	"flexray.DynamicWCRT":    "the dynamic-segment bound Verify's FlexRay verdict is to call (ROADMAP)",
	"e2e.ChainBound":         "the per-stage composition refVerify bounds chains with; its fate is open (ROADMAP)",
	"fault.Voter":            "2-of-3 (TMR) voting, cited in README and EXPERIMENTS.md",
	"fault.DriftSensor":      "the drifting replica the voter out-votes, cited in EXPERIMENTS.md",
	"fault.FlexRayBurst":     "per-channel FlexRay burst injection, cited in README",
	"fault.OverlayBurst":     "overlay burst injection, cited in README and EXPERIMENTS.md",
	"rte.MustBuild":          "the platform constructor test files in seven packages share",
	"deploy.Place":           "single-copy first-fit placement; FuzzFirstFit holds it to its reference packer",
	"deploy.Descend":         "the steepest-descent search under a fresh evaluator, beside Greedy and Anneal; BenchmarkDSEDescend measures it",
	"taskset.Build":          "the reference task-set derivation refVerify and refEvaluate check the live paths against",
	"analysis/checktest.Run": "the autovet analyzers' test driver (internal/analysis/checktest)",
}

// goPackage is one directory's non-test files, parsed.
type goPackage struct {
	dir   string // slash path relative to the repository root
	name  string // declared package name
	files []*ast.File
}

func parseTree(t *testing.T, fset *token.FileSet) map[string]*goPackage {
	t.Helper()
	pkgs := map[string]*goPackage{}
	for _, root := range []string{"internal", "cmd", "examples", "rtebench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || d.Name() == "vendor" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			p := pkgs[dir]
			if p == nil {
				p = &goPackage{dir: dir, name: f.Name.Name}
				pkgs[dir] = p
			}
			p.files = append(p.files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := parseTree(t, fset)

	// Keys are "<dir>.<Func>", <dir> the package's directory under
	// internal/, as in unreferencedOK.
	declared := map[string]token.Pos{}
	u := &uses{seen: map[string]bool{}}
	for dir, p := range pkgs {
		u.self = strings.TrimPrefix(dir, "internal/")
		for _, f := range p.files {
			u.imports = map[string]string{}
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				dp := pkgs[strings.TrimPrefix(path, "autorte/")]
				if dp == nil {
					continue
				}
				name := dp.name
				if is.Name != nil {
					name = is.Name.Name
				}
				u.imports[name] = strings.TrimPrefix(dp.dir, "internal/")
			}
			for _, d := range f.Decls {
				u.own = ""
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					u.own = fd.Name.Name
					if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
						declared[u.self+"."+u.own] = fd.Name.Pos()
					}
				}
				ast.Inspect(d, u.visit)
			}
		}
	}

	var missing []string
	for key, pos := range declared {
		_, ok := unreferencedOK[key]
		switch {
		case u.seen[key] && ok:
			t.Errorf("%s is referenced now: drop it from unreferencedOK", key)
		case !u.seen[key] && !ok:
			missing = append(missing, fset.Position(pos).String()+": "+key)
		}
	}
	for key := range unreferencedOK {
		if _, ok := declared[key]; !ok {
			t.Errorf("unreferencedOK names %s, which is not declared", key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: exported function referenced by no non-test file; wire it in, delete it, or allowlist it with a reason", m)
	}
}

// uses collects references to functions, keyed as unreferencedOK is:
// pkg.Func through an import, or a bare identifier inside the declaring
// package. A declaration's own name, a recursive call, and field and
// method names (a selector's name, a declared field, a struct literal's
// key) are not uses.
type uses struct {
	self    string            // the current file's package
	own     string            // the enclosing top-level function
	imports map[string]string // the file's local import names
	seen    map[string]bool
}

func (u *uses) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv != nil {
			ast.Inspect(n.Recv, u.visit)
		}
		ast.Inspect(n.Type, u.visit)
		if n.Body != nil {
			ast.Inspect(n.Body, u.visit)
		}
		return false
	case *ast.Field:
		ast.Inspect(n.Type, u.visit)
		return false
	case *ast.KeyValueExpr:
		if _, ok := n.Key.(*ast.Ident); !ok {
			ast.Inspect(n.Key, u.visit)
		}
		ast.Inspect(n.Value, u.visit)
		return false
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if pkg, ok := u.imports[x.Name]; ok {
				u.seen[pkg+"."+n.Sel.Name] = true
				return false
			}
		}
		ast.Inspect(n.X, u.visit)
		return false
	case *ast.Ident:
		if n.Name != u.own {
			u.seen[u.self+"."+n.Name] = true
		}
	}
	return true
}
