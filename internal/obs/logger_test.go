package obs

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneLogger holds the one-logger rule: log/slog is the only logging
// mechanism, so no non-test file under internal/ or cmd/ imports "log".
// Every *slog.Logger reaches its package through a config field whose nil
// value is Discard, and a -quiet that hides access records can never hide
// a warning written through a second logger. examples/ is exempt: its
// log.Fatal calls are sample code for users.
func TestOneLogger(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "log" {
					t.Errorf("%s imports \"log\"; log through the *slog.Logger of the package's config", fset.Position(imp.Pos()))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("walk found no Go files: wrong root?")
	}
}
