package lint

import (
	"bytes"
	"cmp"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases pairs each analyzer with its seeded-violation fixture.
// Every fixture runs under ALL analyzers so a check firing outside its
// own fixture (a cross-analyzer false positive) fails the test too.
var fixtureCases = []struct {
	name string
	dir  string
}{
	{"wallclock", "wallclock"},
	{"maprange", "maprange"},
	{"simtime", "simtime"},
	{"goroutine", "goroutine"},
	{"detaint", "detaint"},
	{"spanleak", "spanleak"},
	{"hotalloc", "hotalloc"},
	{"psunits", "psunits"},
	{"clean", "clean"},
}

func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			for _, err := range RunFixture(dir, All()) {
				t.Error(err)
			}
		})
	}
}

// TestRepositoryIsClean is the linter's one entry point: every model
// package in this repository, its in-package _test.go files included,
// must produce zero diagnostics. Keeping the gate in `go test` means a
// violation fails the ordinary test suite wherever it runs.
func TestRepositoryIsClean(t *testing.T) {
	pkgs, err := Load("..")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	checked := map[string]bool{}
	sawSimTests := false
	for _, pkg := range pkgs {
		if checked[pkg.PkgPath] {
			t.Errorf("%s loaded twice; each model package is checked once, as its test variant when it has one", pkg.PkgPath)
		}
		checked[pkg.PkgPath] = true
		sawSimTests = sawSimTests || pkg.PkgPath == "rvma/internal/sim" && hasFile(pkg, "engine_test.go")
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
	if len(checked) != len(ModelPackages) {
		t.Errorf("checked %d model packages, expected %d — did a package move without updating lint.ModelPackages?",
			len(checked), len(ModelPackages))
	}
	if !sawSimTests {
		t.Error("rvma/internal/sim was not loaded with engine_test.go; the gate must cover in-package test files")
	}
}

// hasFile reports whether one of pkg's files has the given base name.
func hasFile(pkg *Package, name string) bool {
	for _, f := range pkg.Files {
		if filepath.Base(pkg.Fset.Position(f.Pos()).Filename) == name {
			return true
		}
	}
	return false
}

// moduleGoFiles calls fn with the path and contents of every .go file in
// the module, bench/ and examples/ included.
func moduleGoFiles(t *testing.T, fn func(path string, data []byte)) {
	t.Helper()
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && d.Name() == ".git" {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllowDirectivesNamedAndJustified audits every //rvmalint:allow
// directive in the module, bench/ and examples/ included: each name is an
// analyzer All() registers and a justification follows " -- ", so a
// directive never silently suppresses nothing (a typo) or suppresses
// without a recorded reason.
func TestAllowDirectivesNamedAndJustified(t *testing.T) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	directive := regexp.MustCompile(`//rvmalint:allow\s+([A-Za-z0-9_,]+)(.*)$`)
	found := 0
	moduleGoFiles(t, func(path string, data []byte) {
		for i, line := range strings.Split(string(data), "\n") {
			m := directive.FindStringSubmatch(line)
			// A quote before the directive puts it in a string literal or
			// a quoted doc example, not a suppression.
			if m == nil || strings.Contains(line[:strings.Index(line, m[0])], `"`) {
				continue
			}
			found++
			for _, name := range strings.Split(m[1], ",") {
				if !known[name] {
					t.Errorf("%s:%d: unknown analyzer %q in allow directive", path, i+1, name)
				}
			}
			if _, why, ok := strings.Cut(m[2], " -- "); !ok || strings.TrimSpace(why) == "" {
				t.Errorf("%s:%d: allow directive has no justification; append ' -- <why this suppression is sound>'", path, i+1)
			}
		}
	})
	if found == 0 {
		t.Error("no allow directives found; the walk missed the module")
	}
}

// TestGoFilesAreGofmted fails on any .go file in the module, bench/ and
// examples/ included, that gofmt would rewrite.
func TestGoFilesAreGofmted(t *testing.T) {
	moduleGoFiles(t, func(path string, data []byte) {
		formatted, err := format.Source(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(formatted, data) {
			t.Errorf("%s: gofmt would reformat this file", path)
		}
	})
}

// TestDirectiveRequiresAnalyzerName guards the directive parser: a
// directive names specific analyzers, and an unknown name suppresses
// nothing.
func TestDirectiveMatchesOnlyNamedAnalyzer(t *testing.T) {
	dir := filepath.Join("testdata", "wallclock")
	// Running only the wallclock analyzer must still satisfy that
	// fixture's wallclock expectations.
	var errs []error
	for _, err := range RunFixture(dir, []*Analyzer{Wallclock}) {
		errs = append(errs, err)
	}
	for _, err := range errs {
		t.Error(err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "wallclock", Message: "m"}
	d.Pos.Filename = "f.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "f.go:3:7: m [wallclock]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestModelPackageSet(t *testing.T) {
	for path := range ModelPackages {
		if !strings.HasPrefix(path, "rvma/internal/") {
			t.Errorf("model package %q outside rvma/internal/", path)
		}
	}
	if ModelPackages["rvma/internal/harness"] {
		t.Error("harness must stay host-side (it may time real executions)")
	}
}

// hostSidePackages are the internal packages deliberately outside the
// determinism rules, each with the reason it is exempt. A package must
// appear here or in ModelPackages: TestModelPackagesCoverInternalTree
// fails on any unaccounted directory, so adding a package forces an
// explicit classification decision.
var hostSidePackages = map[string]string{
	"rvma/internal/harness": "times real executions of the binary under test",
	"rvma/internal/lint":    "the linter itself; runs at build time, not sim time",
	"rvma/internal/metrics": "recording substrate; sinks for model data, runs no model logic",
	"rvma/internal/stats":   "pure math over finished samples; no engine interaction",
	"rvma/internal/trace":   "a bounded ring that model events write into; schedules no events, reads no wall clock",
}

// TestModelPackagesCoverInternalTree keeps lint.ModelPackages in sync
// with the directory tree: every package under internal/ holding Go
// files must be classified, and every classified path must still exist.
func TestModelPackagesCoverInternalTree(t *testing.T) {
	root := filepath.Join("..") // internal/
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading internal/: %v", err)
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatalf("reading internal/%s: %v", e.Name(), err)
		}
		hasGo := false
		for _, f := range sub {
			if !f.IsDir() && strings.HasSuffix(f.Name(), ".go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			continue
		}
		path := "rvma/internal/" + e.Name()
		onDisk[path] = true
		model, host := ModelPackages[path], hostSidePackages[path] != ""
		switch {
		case model && host:
			t.Errorf("%s is listed both as a model package and as host-side", path)
		case !model && !host:
			t.Errorf("%s is unclassified: add it to lint.ModelPackages (determinism rules apply) or to hostSidePackages with a reason", path)
		}
	}
	for path := range ModelPackages {
		if !onDisk[path] {
			t.Errorf("ModelPackages lists %s, which no longer exists under internal/", path)
		}
	}
	for path := range hostSidePackages {
		if !onDisk[path] {
			t.Errorf("hostSidePackages lists %s, which no longer exists under internal/", path)
		}
	}
}
