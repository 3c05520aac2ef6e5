package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	ForTest    string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` with the extra arguments
// (flags, then patterns) and decodes the JSON stream. -export compiles
// export data for every package into the build cache, which is what
// lets the type checker resolve imports without golang.org/x/tools: the
// stdlib gc importer reads those files directly.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportFiles maps each listed package to its export data file.
func exportFiles(pkgs []*listedPackage) map[string]string {
	files := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		files[p.ImportPath] = p.Export
	}
	return files
}

// Load type-checks every model package (ModelPackages) of the module
// containing dir (empty means the current directory) and returns them
// ready for analysis, in dependency order. A package with in-package
// _test.go files is checked as its test variant, "p [p.test]": its own
// files plus those tests, reported under p's import path, so each model
// package appears once. External _test packages are not loaded.
// Everything else is consumed as export data only, never re-parsed.
func Load(dir string) ([]*Package, error) {
	paths := make([]string, 0, len(ModelPackages))
	for p := range ModelPackages {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	listed, err := goList(dir, append([]string{"-test"}, paths...)...)
	if err != nil {
		return nil, err
	}
	testVariant := make(map[string]*listedPackage)
	for _, lp := range listed {
		if lp.ForTest != "" && lp.ImportPath == lp.ForTest+" ["+lp.ForTest+".test]" {
			testVariant[lp.ForTest] = lp
		}
	}
	exports := exportFiles(listed)
	var out []*Package
	for _, lp := range listed {
		if !ModelPackages[lp.ImportPath] {
			continue
		}
		path := lp.ImportPath
		if tv := testVariant[path]; tv != nil {
			lp = tv
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := checkFiles(path, lp.Dir, lp.GoFiles, lp.ImportMap, exports)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks a single directory of Go files as the given import
// path, resolving imports against the export data of deps (additional
// `go list` patterns, typically "std"-ish paths plus rvma/...). The
// fixture test harness uses it for testdata packages that `go list`
// cannot see.
func LoadDir(dir, asPath string, deps ...string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	listed, err := goList(dir, deps...)
	if err != nil {
		return nil, err
	}
	return checkFiles(asPath, dir, files, nil, exportFiles(listed))
}

// checkFiles parses and type-checks one package's files (named relative
// to dir) as pkgPath. Each import resolves through the package's own
// importMap (a test variant's imports name other variants) and then
// exports, which maps listed import paths to export data files.
func checkFiles(pkgPath, dir string, goFiles []string, importMap, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if real, ok := importMap[path]; ok {
			path = real
		}
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
