package lint

import (
	"go/ast"
)

// Goroutine flags go statements in model packages. An engine runs its
// events, and the steps and continuations they call, one at a time; a raw
// go statement races the engine, and the Go scheduler's interleaving is
// not reproducible across runs. The single legitimate use is the shard
// group's per-shard workers (internal/sim/shard.go), which carry an allow
// directive.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc: "forbid go statements in model packages; all model code must run on the engine " +
		"goroutine (schedule a step with Engine.Schedule, or wait with Future.OnComplete)",
	Run: runGoroutine,
}

func runGoroutine(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement escapes the engine goroutine; model code must use Engine.Schedule or Future.OnComplete (kernel-internal uses carry an allow directive)")
			}
			return true
		})
	}
	return nil
}
