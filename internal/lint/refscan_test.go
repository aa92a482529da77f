package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reference scan: which declarations of the engine does nothing but a
// test reach? A package-level func, method or type declared in a non-test
// file under internal/ (outside internal/lint) whose identifier occurs
// exactly once across all non-test .go files of the repository — its own
// declaration — has no caller a build can see. Run to a fixed point: what a
// round prints is taken out (so is every identifier inside it) and the count
// repeats, until a round prints nothing, so a helper only a test-only
// function calls is printed too. The count is by name, not by object: a
// method is spared by any other use of its name (interface methods always
// are), which errs towards printing too little, never too much.
//
// docs/ARCHITECTURE.md's "Reachable only from tests, kept on purpose" section
// is the other half: every declaration the scan prints must be named there,
// backticked as `pkg.Name` or `pkg.Type.Method`, with the reason it stays —
// and nothing may be named there that the scan does not print. A declaration
// the scan prints that is not on the list is dead code: delete it, or list
// it and say why not.

const keptSection = "## Reachable only from tests, kept on purpose"

// scanDecl is one func, method or type declaration and the identifiers
// inside it (its own name included).
type scanDecl struct {
	name   string // pkg.Name or pkg.Type.Method
	ident  string // the identifier counted
	idents map[string]int
}

func countIdents(n ast.Node, into map[string]int) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			into[id.Name]++
		}
		return true
	})
}

// referenceScan returns the fixed point's output, sorted, and the names of
// the package directories it looked for declarations in.
func referenceScan(t *testing.T, root string) (printed []string, pkgs map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	total := make(map[string]int)
	var decls []*scanDecl
	pkgs = make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
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
		countIdents(f, total)
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "internal/lint/") {
			return nil
		}
		pkg := f.Name.Name
		pkgs[pkg] = true
		add := func(n ast.Node, name, ident string) {
			d := &scanDecl{name: pkg + "." + name, ident: ident, idents: make(map[string]int)}
			countIdents(n, d.idents)
			decls = append(decls, d)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				add(decl, name, decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(ts, ts.Name.Name, ts.Name.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning %s: %v", root, err)
	}

	gone := make(map[*scanDecl]bool)
	for {
		var round []*scanDecl
		for _, d := range decls {
			if !gone[d] && total[d.ident] == 1 {
				round = append(round, d)
			}
		}
		if len(round) == 0 {
			break
		}
		for _, d := range round {
			gone[d] = true
			printed = append(printed, d.name)
			for id, n := range d.idents {
				total[id] -= n
			}
		}
	}
	sort.Strings(printed)
	return printed, pkgs
}

var backticked = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})`")

// keptList extracts the declarations the kept-on-purpose section names: every
// backticked dotted name whose first component is one of the scanned
// packages. File names, `Type.Method` shorthand and names of other packages
// are prose, not list entries.
func keptList(t *testing.T, doc string, pkgs map[string]bool) []string {
	t.Helper()
	i := strings.Index(doc, keptSection)
	if i < 0 {
		t.Fatalf("docs/ARCHITECTURE.md has no %q section", keptSection)
	}
	section := doc[i+len(keptSection):]
	if j := strings.Index(section, "\n## "); j >= 0 {
		section = section[:j]
	}
	seen := make(map[string]bool)
	var out []string
	for _, m := range backticked.FindAllStringSubmatch(section, -1) {
		name := m[1]
		if pkgs[name[:strings.Index(name, ".")]] && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// scanDiff is both directions of the difference between the two lists.
func scanDiff(printed, listed []string) (unlisted, stale []string) {
	in := func(set []string, s string) bool {
		i := sort.SearchStrings(set, s)
		return i < len(set) && set[i] == s
	}
	for _, p := range printed {
		if !in(listed, p) {
			unlisted = append(unlisted, p)
		}
	}
	for _, l := range listed {
		if !in(printed, l) {
			stale = append(stale, l)
		}
	}
	return unlisted, stale
}

func orNone(names []string) string {
	if len(names) == 0 {
		return "(none)"
	}
	return strings.Join(names, "\n  ")
}

// TestReferenceScanMatchesKeptList holds list = scan.
func TestReferenceScanMatchesKeptList(t *testing.T) {
	if testing.Short() {
		t.Skip("parses every non-test file of the repository; skipped under -short")
	}
	root := repoRoot(t)
	doc, err := os.ReadFile(filepath.Join(root, "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	printed, pkgs := referenceScan(t, root)
	listed := keptList(t, string(doc), pkgs)
	if len(listed) == 0 {
		t.Fatal("the kept-on-purpose section names no declaration: the list extraction is broken")
	}
	unlisted, stale := scanDiff(printed, listed)
	if len(unlisted)+len(stale) > 0 {
		t.Fatalf("the reference scan and docs/ARCHITECTURE.md's kept-on-purpose list differ.\n"+
			"printed by the scan, not on the list (dead code: delete it, or list it with a reason):\n  %s\n"+
			"on the list, not printed by the scan (now reachable, renamed or gone: drop the entry):\n  %s",
			orNone(unlisted), orNone(stale))
	}

	// Teeth: with one listed name taken out of the document, the same
	// comparison must fail, and in the right direction.
	victim := listed[0]
	cut := strings.ReplaceAll(string(doc), "`"+victim+"`", victim)
	unlisted, stale = scanDiff(printed, keptList(t, cut, pkgs))
	if len(unlisted) != 1 || unlisted[0] != victim || len(stale) != 0 {
		t.Fatalf("removing %s from the list: unlisted = %v, stale = %v; want exactly that name unlisted", victim, unlisted, stale)
	}
}
