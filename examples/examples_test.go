// Package examples holds the test that runs every example program.
package examples

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rvma/internal/sim"
)

// TestEveryExampleRuns builds every example, runs it, and checks it exits
// 0 printing exactly testdata/<name>.txt: every simulated time an example
// prints, and quickstart's event count, are part of what it shows. A new
// example directory without its file fails the test. The files are
// written by hand, from a run of the example that is known to be right:
//
//	go run ./examples/<name> > examples/testdata/<name>.txt
//
// The examples are built by a go build subprocess, which the test cache
// does not see, and the test binary links little of the code they run. So
// the test first reads the source of every module package the examples
// import, directly or not: the files a test opens are inputs of its cached
// result, so an edit to any of them makes the next go test ./examples/ run
// again.
func TestEveryExampleRuns(t *testing.T) {
	if deps := readModuleImports(t); !deps["rvma/internal/sim"] {
		t.Fatalf("the examples' module imports %v do not reach rvma/internal/sim", deps)
	}
	dirs, err := filepath.Glob("*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if outputs, _ := filepath.Glob("testdata/*.txt"); len(dirs) != len(outputs) {
		t.Errorf("%d examples, %d expected outputs: %v, %v", len(dirs), len(outputs), dirs, outputs)
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	if sim.DebugEnabled {
		args = append(args, "-tags", "simdebug")
	}
	if out, err := exec.Command("go", append(args, "./...")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, main := range dirs {
		name := filepath.Dir(main)
		want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
		if err != nil {
			t.Errorf("%s: no expected output: %v", name, err)
			continue
		}
		out, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(out, want) {
			t.Errorf("%s: output differs from testdata/%s.txt:\n%s", name, name, out)
		}
	}
}

// readModuleImports parses every example and, transitively, every
// non-test Go file of the module packages they import, and returns those
// packages' import paths.
func readModuleImports(t *testing.T) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	fset := token.NewFileSet()
	var read func(pattern string)
	read = func(pattern string) {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s: %v", pattern, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				dir, inModule := strings.CutPrefix(path, "rvma")
				if !inModule || (dir != "" && dir[0] != '/') || seen[path] {
					continue
				}
				seen[path] = true
				read(filepath.Join("..", dir, "*.go"))
			}
		}
	}
	read("*/*.go")
	return seen
}
