package experiment

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// funlenLimit is ROADMAP item 2's acceptance line: no function in this
// package over 150 lines.
const funlenLimit = 150

// funlenCeilings is the ratchet: the functions still over the limit, each
// with its current length. Ceilings only go down and names are only removed
// — the test insists on both — so every PR that shrinks one of them shows up
// here as a smaller number.
var funlenCeilings = map[string]int{}

// TestFunctionLengthRatchet parses the package's non-test sources and fails
// on any function longer than funlenLimit lines that is not allow-listed, on
// an allow-listed function whose length is not exactly its ceiling, and on a
// stale entry (gone, or already under the limit).
func TestFunctionLengthRatchet(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
				ceiling, listed := funlenCeilings[name]
				seen[name] = true
				switch {
				case !listed && lines > funlenLimit:
					t.Errorf("%s: %s is %d lines (limit %d); split it rather than allow-listing it",
						fset.Position(fn.Pos()), name, lines, funlenLimit)
				case listed && lines > ceiling:
					t.Errorf("%s: %s grew to %d lines, ceiling %d", fset.Position(fn.Pos()), name, lines, ceiling)
				case listed && lines <= funlenLimit:
					t.Errorf("%s is down to %d lines: delete it from funlenCeilings", name, lines)
				case listed && lines < ceiling:
					t.Errorf("%s shrank to %d lines: lower its ceiling from %d", name, lines, ceiling)
				}
			}
		}
	}
	for name := range funlenCeilings {
		if !seen[name] {
			t.Errorf("%s no longer exists: delete it from funlenCeilings", name)
		}
	}
}
