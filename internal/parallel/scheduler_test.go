package parallel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneScheduler holds the one-scheduler rule: ForBlockIndexed is the
// only code in this package that starts a goroutine, and no non-test file
// of a package importing it starts one at all. A kernel that keeps
// per-worker state fans out through ForBlockIndexed, so a change of
// partition or a pool of persistent workers is made in one place.
func TestOneScheduler(t *testing.T) {
	const self = "repro/internal/parallel"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type goStmt struct{ pos, fn string }
	stmts := map[string][]goStmt{} // package directory → its go statements
	importers := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				importers[dir] = true
			}
		}
		for _, decl := range f.Decls {
			fn := "(top level)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					stmts[dir] = append(stmts[dir], goStmt{fset.Position(g.Pos()).String(), fn})
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !importers[filepath.Join(root, "internal", "bfs")] {
		t.Fatal("walk found no importer of internal/parallel: wrong root?")
	}
	for dir := range importers {
		for _, s := range stmts[dir] {
			t.Errorf("%s: go statement in %s; fan out through parallel.ForBlockIndexed", s.pos, s.fn)
		}
	}
	own := stmts[filepath.Join(root, "internal", "parallel")]
	if len(own) != 1 || own[0].fn != "ForBlockIndexed" {
		t.Errorf("package parallel has go statements %v; want exactly one, in ForBlockIndexed", own)
	}
}
