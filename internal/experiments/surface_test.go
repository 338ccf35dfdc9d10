package experiments

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

// signatureNeeded are exported names no file outside the package spells,
// kept because a kept name's signature needs them: a caller holding the
// value must be able to name its type.
var signatureNeeded = []string{
	"Flow",       // NewFlow's result
	"FlowConfig", // NewFlow's parameter, DefaultFlowConfig's result
	"Matrix",     // Flow.Matrix
	"Packet",     // Flow.Link carries it
}

// TestExportedNamesHaveUsers is the package's surface rule, the sibling of
// the root package's TestPublicNamesHaveUsers: an exported top-level name
// stays only while a non-test Go file outside the package uses it, or it is
// on signatureNeeded. A table is a registry entry, so its parameters and its
// function stay unexported unless a command drives it.
func TestExportedNamesHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["experiments"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}

	// Every experiments.<Name> selector in the module's other non-test
	// files, comments excluded.
	used := make(map[string]bool)
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(filepath.Join("..", ".."), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, err := filepath.Abs(p)
			if err != nil || abs == self || (d.Name() != ".." && strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(p) != ".go" || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "experiments" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, n := range signatureNeeded {
		listed[n] = true
	}

	sort.Strings(names)
	exported := 0
	for _, n := range names {
		if !ast.IsExported(n) {
			continue
		}
		exported++
		switch {
		case used[n] && listed[n]:
			t.Errorf("%s has a user: take it off signatureNeeded", n)
		case !used[n] && !listed[n]:
			t.Errorf("%s: no non-test file outside the package uses experiments.%s, and no kept signature is said to need it", n, n)
		}
		delete(listed, n)
	}
	for n := range listed {
		t.Errorf("signatureNeeded lists %s, which the package does not export", n)
	}
	t.Logf("%d exported top-level names", exported)
}
