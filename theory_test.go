package assignmentmotion

// THEORY.md maps the paper to the code. This test pins that map: every
// Go reference in the Code column of its tables must name a declaration
// under internal/, so renaming or deleting a function fails here instead
// of leaving the map silently wrong.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declaredNames returns every name a reference may take for a declaration
// of a Go file under root, test files included: pkg.Name and Name for a
// top-level declaration, pkg.Type.Member and Type.Member for a method or
// struct field. pkg is the package directory's last element.
func declaredNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	add := func(pkg, name string) {
		names[name] = true
		names[pkg+"."+name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkg, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(pkg, id.Name+"."+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(pkg, spec.Name.Name)
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									add(pkg, spec.Name.Name+"."+name.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(pkg, name.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

var (
	codeSpan = regexp.MustCompile("`([^`]*)`")
	goRef    = regexp.MustCompile(`^\w+(\.\w+){0,2}$`)
)

func TestTheoryReferencesResolve(t *testing.T) {
	src, err := os.ReadFile("THEORY.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredNames(t, "internal")
	checked := 0
	for n, line := range strings.Split(string(src), "\n") {
		cells := strings.Split(strings.Trim(line, " |"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 2 {
			continue
		}
		// The last cell is the Code column; the Paper column quotes
		// program text, not Go.
		for _, m := range codeSpan.FindAllStringSubmatch(cells[len(cells)-1], -1) {
			ref := m[1]
			if strings.Contains(ref, "/") {
				dir, name, qualified := strings.Cut(ref, ".")
				if !qualified || name == "go" {
					// A repository path: a package directory or a file.
					if _, err := os.Stat(ref); err != nil {
						t.Errorf("THEORY.md:%d: %v", n+1, err)
					}
					checked++
					continue
				}
				// A directory-qualified name, internal/am.TestX.
				ref = filepath.Base(dir) + "." + name
			}
			if !goRef.MatchString(ref) || (!strings.Contains(ref, ".") && !ast.IsExported(ref)) {
				continue
			}
			if !declared[ref] {
				t.Errorf("THEORY.md:%d: %s names no declaration under internal/", n+1, m[1])
			}
			checked++
		}
	}
	if checked < 50 {
		t.Errorf("only %d references checked; the table parser is broken", checked)
	}
}
