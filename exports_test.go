package repro

// The exported API under internal/ has no callers outside this module, so
// an exported function or method that no shipped file names is either
// dead or kept as a test reference. This gate keeps that set from growing
// back: every exported func or method declared in a non-test file under
// internal/ must be named somewhere a shipped path can reach it (a non-test
// file of this module other than its own declaration, or any file of the
// perfbench module), or say in its doc comment why a test needs it with a
// line starting "Test oracle:".

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goFiles parses every .go file under root, skipping the directories the
// go tool skips (testdata and names starting with "." or "_").
func goFiles(t *testing.T, fset *token.FileSet, root string) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// namedIdents adds to used every identifier in f, except those inside a
// top-level function of the same name: a declaration does not count as its
// own caller, and neither does a recursive call.
func namedIdents(f *ast.File, used map[string]bool) {
	for _, decl := range f.Decls {
		self := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name != self {
				used[id.Name] = true
			}
			return true
		})
	}
}

func TestExportedFuncsHaveShippedCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := goFiles(t, fset, ".")
	used := map[string]bool{}
	for path, f := range files {
		inPerfbench := strings.HasPrefix(path, "perfbench/")
		if inPerfbench || !strings.HasSuffix(path, "_test.go") {
			namedIdents(f, used)
		}
	}
	var dead []string
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || used[fd.Name.Name] {
				continue
			}
			if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "Test oracle:") {
				continue
			}
			dead = append(dead, fset.Position(fd.Pos()).String()+" "+fd.Name.Name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported but named by no shipped file; delete it, or mark the test it serves with a \"Test oracle:\" doc line", d)
	}
}
