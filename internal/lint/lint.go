// Package lint implements rvmalint, the repository's determinism and
// protocol-invariant linter.
//
// The simulation kernel's whole value is that a given seed reproduces a
// run exactly (DESIGN.md §1): event order is (time, priority, sequence)
// and the only randomness is the engine's seeded RNG. Nothing in the Go
// language enforces those rules — one stray time.Now, one global
// math/rand call, or one map iteration that schedules events silently
// destroys run-to-run reproducibility of every figure. This package
// machine-checks the rules statically; the simdebug build tag (see
// internal/sim) covers the residue that only shows up at runtime.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) so the analyzers could be rehosted on the real framework
// mechanically, but it is built entirely on the standard library: type
// information comes from export data produced by `go list -export`, so
// the linter needs no dependencies beyond the Go toolchain itself.
//
// The linter runs as one Go test: `go test ./internal/lint` type-checks
// every model package with its in-package _test.go files
// (TestRepositoryIsClean) and fails on any finding.
//
// Violations that are intentional are suppressed with a directive
// comment on the same line or the line above:
//
//	//rvmalint:allow wallclock -- host-side benchmarking, not model time
//
// The directive names one or more analyzers (comma-separated); anything
// after " -- " is a human-readable justification and is required by
// convention, not by the parser. A directive placed directly above a
// statement covers the statement's whole extent, so a single directive
// suppresses every finding inside a loop or block.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, in the image of analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package through pass and reports findings.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// fl is the package's dataflow context (CFGs, bottom-up order, call
	// summaries), shared by the flow-based analyzers.
	fl    *flowCtx
	diags *[]Diagnostic
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// and the message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in stable order: the four
// syntactic checks first (wallclock, maprange, simtime, goroutine), then
// the four dataflow checks built on internal/lint/flow (detaint,
// spanleak, hotalloc, psunits).
func All() []*Analyzer {
	return []*Analyzer{Wallclock, MapRange, SimTime, Goroutine, Detaint, SpanLeak, HotAlloc, PSUnits}
}

// ModelPackages are the import paths whose code runs on the simulation
// engine and therefore must obey the determinism rules. cmd/ and the
// harness are host-side and exempt: the harness times real executions
// and runs its worker-pool cell runner on goroutines — legal precisely
// because each cell owns a private engine that no other goroutine can
// reach, so the one-goroutine rule still holds per engine. Goroutines
// remain banned inside every package listed here.
var ModelPackages = map[string]bool{
	"rvma/internal/sim":        true,
	"rvma/internal/fabric":     true,
	"rvma/internal/nic":        true,
	"rvma/internal/rvma":       true,
	"rvma/internal/rdma":       true,
	"rvma/internal/mpirma":     true,
	"rvma/internal/motif":      true,
	"rvma/internal/topology":   true,
	"rvma/internal/memory":     true,
	"rvma/internal/pcie":       true,
	"rvma/internal/hostif":     true,
	"rvma/internal/collective": true,
	// recovery schedules retry timers and jitter draws on the engine, so
	// its determinism matters as much as the transports it guards.
	"rvma/internal/recovery": true,
	// kv's store Apply runs inside server-side engine events and its zipf
	// sampler feeds seeded substreams, so both are model code.
	"rvma/internal/kv": true,
	// telemetry schedules its sampler ticks on the engine, so it must obey
	// the same determinism rules as the models it observes.
	"rvma/internal/telemetry": true,
	// attrib consumes span-observer callbacks fired from model code, so its
	// aggregation must be just as deterministic (sorted iteration, no clocks).
	"rvma/internal/attrib": true,
	// ledger's ObserveExec runs inside the engine's pop loop, so its hash
	// chain must be a pure function of the pop stream; only the host-time
	// profiler may read wall clocks, under an explicit allow directive.
	"rvma/internal/ledger": true,
	// rstream's completion handlers and its Read/Write futures run inside
	// engine events, like the rvma windows they sit on.
	"rvma/internal/rstream": true,
}

// RunAnalyzers applies every analyzer to the package and returns the
// findings that survive allow-directive filtering, sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	fl := buildFlowCtx(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			fl:        fl,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = filterAllowed(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// allowDirective matches "//rvmalint:allow name1,name2 -- reason".
var allowDirective = regexp.MustCompile(`^//rvmalint:allow\s+([a-z,]+)`)

// filterAllowed drops diagnostics covered by an allow directive. A
// directive covers its own line and the following line, and when a
// statement or declaration begins on a covered line, the directive
// extends over that node's entire extent — so one directive above a
// range statement covers the whole loop body.
func filterAllowed(pkg *Package, diags []Diagnostic) []Diagnostic {
	// allowed[file][line] -> set of analyzer names.
	allowed := make(map[string]map[int]map[string]bool)
	record := func(file string, from, to int, names []string) {
		byLine := allowed[file]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			allowed[file] = byLine
		}
		for l := from; l <= to; l++ {
			set := byLine[l]
			if set == nil {
				set = make(map[string]bool)
				byLine[l] = set
			}
			for _, n := range names {
				set[n] = true
			}
		}
	}
	for _, f := range pkg.Files {
		// spanEnd[startLine] is the last line of the outermost statement or
		// declaration beginning on that line.
		spanEnd := make(map[int]int)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl:
				start := pkg.Fset.Position(n.Pos()).Line
				end := pkg.Fset.Position(n.End()).Line
				if end > spanEnd[start] {
					spanEnd[start] = end
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				to := pos.Line + 1
				for _, l := range []int{pos.Line, pos.Line + 1} {
					if spanEnd[l] > to {
						to = spanEnd[l]
					}
				}
				record(pos.Filename, pos.Line, to, strings.Split(m[1], ","))
			}
		}
	}
	if len(allowed) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if set := allowed[d.Pos.Filename][d.Pos.Line]; set[d.Analyzer] || set["all"] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
