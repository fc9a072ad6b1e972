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

// moduleRoot is the module's root directory, seen from this package.
var moduleRoot = filepath.Join("..", "..")

// walkModule parses every non-test Go file of the module and hands each
// top-level declaration to visit, with the file's directory, its path
// relative to the module root, and the name of the enclosing function
// ("(top level)" outside one).
func walkModule(t *testing.T, visit func(dir, rel, fn string, decl ast.Decl, f *ast.File, fset *token.FileSet)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != moduleRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn := "(top level)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			visit(filepath.Dir(path), filepath.ToSlash(rel), fn, decl, f, fset)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneScheduler holds the one-scheduler rule: ForBlockIndexed is the
// only code in this package that starts a goroutine, and no non-test file
// of a package importing it starts one at all. A kernel that keeps
// per-worker state fans out through ForBlockIndexed, so a change of
// partition or a pool of persistent workers is made in one place.
func TestOneScheduler(t *testing.T) {
	const self = "repro/internal/parallel"
	type goStmt struct{ pos, fn string }
	stmts := map[string][]goStmt{} // package directory → its go statements
	importers := map[string]bool{}
	walkModule(t, func(dir, _, fn string, decl ast.Decl, f *ast.File, fset *token.FileSet) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				importers[dir] = true
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				stmts[dir] = append(stmts[dir], goStmt{fset.Position(g.Pos()).String(), fn})
			}
			return true
		})
	})
	if !importers[filepath.Join(moduleRoot, "internal", "bfs")] {
		t.Fatal("walk found no importer of internal/parallel: wrong root?")
	}
	for dir := range importers {
		for _, s := range stmts[dir] {
			t.Errorf("%s: go statement in %s; fan out through parallel.ForBlockIndexed", s.pos, s.fn)
		}
	}
	own := stmts[filepath.Join(moduleRoot, "internal", "parallel")]
	if len(own) != 1 || own[0].fn != "ForBlockIndexed" {
		t.Errorf("package parallel has go statements %v; want exactly one, in ForBlockIndexed", own)
	}
}

// TestNoOneWorkerCopies holds the one-body rule: a kernel writes its tile
// or block body once and hands it to Tiles, Blocks, SumTiles or MaxTiles,
// which run it inline on one worker, so no code outside this package
// branches on the worker count being 1. The test fails on any comparison
// against 1 of a Workers() or BlockWorkers(…) call or of anything named
// workers (a field or a local). The exceptions are the three bfs branches
// that run a different algorithm on one worker, with plain stores only a
// sole writer may use: the branch-free top-down step, the SetSerial
// frontier materialization in Distances, and bottomUpRange's serial store.
func TestNoOneWorkerCopies(t *testing.T) {
	allowed := map[string]int{
		"internal/bfs/bfs.go:topDownStep":   1,
		"internal/bfs/bfs.go:Distances":     1,
		"internal/bfs/bfs.go:bottomUpRange": 1,
	}
	found := map[string]int{}
	var seen int
	walkModule(t, func(dir, rel, fn string, decl ast.Decl, _ *ast.File, fset *token.FileSet) {
		if dir == filepath.Join(moduleRoot, "internal", "parallel") {
			return
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || !isComparison(b.Op) {
				return true
			}
			seen++
			if (isOne(b.X) && isWorkerCount(b.Y)) || (isOne(b.Y) && isWorkerCount(b.X)) {
				key := rel + ":" + fn
				found[key]++
				if found[key] > allowed[key] {
					t.Errorf("%s: %s compares a worker count against 1; write the body once and run it through parallel.Tiles or parallel.Blocks",
						fset.Position(b.Pos()), fn)
				}
			}
			return true
		})
	})
	if seen == 0 {
		t.Fatal("walk found no comparisons: wrong root?")
	}
	for key, want := range allowed {
		if found[key] != want {
			t.Errorf("%s: %d one-worker branches, want exactly %d; update the exceptions", key, found[key], want)
		}
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func isOne(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "1"
}

// isWorkerCount reports whether e is a Workers() or BlockWorkers(…) call,
// or a field or variable named workers.
func isWorkerCount(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Workers" || sel.Sel.Name == "BlockWorkers")
	case *ast.SelectorExpr:
		return e.Sel.Name == "workers"
	case *ast.Ident:
		return e.Name == "workers"
	}
	return false
}
