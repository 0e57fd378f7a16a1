package swbfs

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

// keptExports lists the exported identifiers under internal/ that no
// non-test code references yet, and why each stays. Keys are "pkg.Name"
// for package-level names and "pkg.Type.Method" for methods.
var keptExports = map[string]string{
	// Serial oracles: the independent answers the kernels are checked
	// against, part of the API a driver author builds on.
	"algos.ReferenceBetweenness": "serial oracle",
	"algos.ReferenceKCore":       "serial oracle",
	"algos.ReferenceSSSP":        "serial oracle",
	// Measures the tests use to verify other code.
	"chaos.Plan.Without":              "shrinks fault plans in the chaos harness",
	"comm.Network.ConnectionCount":    "checks per-node connection accounting",
	"core.Runner.LastInjections":      "checks the injection log of a run",
	"fabric.Topology.NumSuperNodes":   "checks topology construction",
	"flight.Reconcile":                "checks flight dumps against fault plans",
	"graph.Bitmap.Clear":              "checks bitmap scans",
	"graph.Bitmap.Empty":              "checks bitmap scans",
	"graph.CSR.IsSymmetric":           "checks built graphs",
	"graph.Census":                    "checks generated graphs",
	"graph.DegreeImbalance":           "checks partitions",
	"obs.FlightRecorder.TotalDropped": "checks flight ring overflow",
	// The CPE-cluster simulator's introspection: what its tests check the
	// cycle-level runs and the paper's constants with.
	"shuffle.Layout.Role":        "checks the Figure 6 role map",
	"sw.BroadcastLatencyCycles":  "checks the broadcast term of FlagNotifyLatencySeconds",
	"sw.InterruptLatencySeconds": "checks flag polling against the paper's interrupt cost",
	"sw.MPETime":                 "derives the 1 KB small-message threshold",
	"sw.ProgramFunc":             "builds the simulator tests' CPE programs",
	"sw.SPM.Regions":             "checks SPM accounting",
	"sw.SPM.Remaining":           "checks SPM accounting",
	"sw.SPM.Used":                "checks SPM accounting",
	"sw.SaturatingCPECount":      "checks the DMA curve against Figure 5",
}

// keptPackages are skipped whole: testutil exists to serve tests.
var keptPackages = map[string]string{
	"testutil": "test support package",
}

// interfaceMethods are method names that fmt and errors call through
// their interfaces, from outside this module.
var interfaceMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// TestNoTestOnlyExports fails when an exported identifier under internal/
// has no reference outside its own declaration in non-test code, so an
// export only its own tests call cannot come back unnoticed. Package-level
// names count a bare use inside their package or a qualified use from an
// importer; methods count any selector of their name anywhere, which is
// crude but cannot miss a real caller.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkgPath string // import path of the file's package
		ast     *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		pkgPath := "swbfs"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkgPath += "/" + dir
		}
		pkgName[pkgPath] = f.Name.Name
		files = append(files, file{pkgPath, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: exported names of the internal packages.
	type decl struct{ pkgPath, name, recv string }
	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(f.pkgPath, "swbfs/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{f.pkgPath, d.Name.Name, ""})
				} else if recv := receiverType(d); ast.IsExported(recv) && !interfaceMethods[d.Name.Name] {
					decls = append(decls, decl{f.pkgPath, d.Name.Name, recv})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, decl{f.pkgPath, s.Name.Name, ""})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, decl{f.pkgPath, n.Name, ""})
							}
						}
					}
				}
			}
		}
	}

	// References: bare identifiers in expression position per package,
	// qualified identifiers per imported package, and selector names.
	bare := map[string]bool{}      // pkgPath + "." + name
	qualified := map[string]bool{} // pkgPath + "." + name
	selected := map[string]bool{}  // any x.name
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			local := pkgName[path]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		for _, id := range usedIdents(f.ast) {
			bare[f.pkgPath+"."+id.Name] = true
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	unused := map[string]bool{}
	for _, d := range decls {
		pkg := pkgName[d.pkgPath]
		key := pkg + "." + d.name
		if d.recv != "" {
			key = pkg + "." + d.recv + "." + d.name
		}
		if keptPackages[pkg] != "" {
			continue
		}
		var used bool
		if d.recv != "" {
			used = selected[d.name]
		} else {
			used = bare[d.pkgPath+"."+d.name] || qualified[d.pkgPath+"."+d.name]
		}
		if !used {
			unused[key] = true
		}
	}
	var keys []string
	for key := range unused {
		if keptExports[key] == "" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s is exported but only tests use it: delete it, or keep it in keptExports with a reason", key)
	}
	for key := range keptExports {
		if !unused[key] {
			t.Errorf("keptExports entry %s is stale: it is gone or has a non-test caller", key)
		}
	}
}

// receiverType names a method's receiver base type.
func receiverType(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr: // generic receiver T[P]
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// usedIdents returns the identifiers of f in expression or type position:
// not declared names, selected names or method receivers. Composite-literal
// keys count as uses, since a map key may name a constant.
func usedIdents(f *ast.File) []*ast.Ident {
	skip := map[*ast.Ident]bool{}
	var out []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		case *ast.Ident:
			if !skip[n] {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}
