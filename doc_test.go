package uhtm_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestInternalPackagesDocumented fails when any internal/* package lacks
// a package doc comment. ARCHITECTURE.md's package map assumes every
// package states its own role in the design; an undocumented package is
// doc drift, caught here rather than in review.
func TestInternalPackagesDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found — run from the repo root")
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package doc comment", name, dir)
			}
		}
	}
}

// TestOnlyWorkloadImportsCrash pins ARCHITECTURE.md §1's layering rule
// for the fault-injection framework: internal/workload's crash plan is
// the one package that imports internal/crash, so the simulator, the
// cluster and the serving stack never link it. Test files are exempt —
// the oracle checks other packages' recovery in their own tests.
func TestOnlyWorkloadImportsCrash(t *testing.T) {
	const crashPkg, allowed = "uhtm/internal/crash", "internal/workload"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"`+crashPkg+`"` && filepath.ToSlash(filepath.Dir(path)) != allowed {
				t.Errorf("%s imports %s; only %s may", path, crashPkg, allowed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportedIdentifiersDocumented requires a doc comment on every
// exported top-level identifier of every internal package — added with
// internal/server (a network-facing API whose docs SERVING.md links
// into), and enforced repo-wide so no package regresses below it.
//
// A constant or variable inside a grouped declaration also counts as
// documented when the group itself has a doc comment (the standard Go
// idiom, e.g. "Common durations." over sim's time units) or when a
// sibling spec's doc comment in the same group mentions it by name
// (the idiom used for families like "EvTxRead / EvTxWrite: ..." in
// internal/trace, whose const block has no group doc).
func TestExportedIdentifiersDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for _, pkg := range pkgs {
			for fname, f := range pkg.Files {
				for _, decl := range f.Decls {
					checkDeclDocumented(t, fset, fname, decl)
				}
			}
		}
	}
}

// checkDeclDocumented reports undocumented exported identifiers in one
// top-level declaration.
func checkDeclDocumented(t *testing.T, fset *token.FileSet, fname string, decl ast.Decl) {
	t.Helper()
	undocumented := func(pos token.Pos, what, name string) {
		t.Errorf("%s:%d: exported %s %s has no doc comment",
			fname, fset.Position(pos).Line, what, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			undocumented(d.Pos(), what, d.Name.Name)
		}
	case *ast.GenDecl:
		// Gather every comment in the group so "documented by mention"
		// can be resolved against siblings.
		var groupDocs []string
		if d.Doc != nil {
			groupDocs = append(groupDocs, d.Doc.Text())
		}
		for _, spec := range d.Specs {
			if s, ok := spec.(*ast.ValueSpec); ok {
				if s.Doc != nil {
					groupDocs = append(groupDocs, s.Doc.Text())
				}
				if s.Comment != nil {
					groupDocs = append(groupDocs, s.Comment.Text())
				}
			}
		}
		mentioned := func(name string) bool {
			re := regexp.MustCompile(fmt.Sprintf(`\b%s\b`, regexp.QuoteMeta(name)))
			for _, doc := range groupDocs {
				if re.MatchString(doc) {
					return true
				}
			}
			return false
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					undocumented(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil && s.Comment == nil && !mentioned(n.Name) {
						undocumented(n.Pos(), "value", n.Name)
					}
				}
			}
		}
	}
}
