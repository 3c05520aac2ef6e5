package lint

import (
	"go/ast"
	"go/types"
)

// MapRange flags range statements over maps whose bodies do order-
// sensitive work. Go randomizes map iteration order on purpose; when a
// map-range body schedules events, calls into model code (which may
// schedule or mutate simulation state), appends to a slice that outlives
// the loop, or writes output, the result depends on that random order
// and same-seed runs diverge. Commutative bodies (summing into a local,
// counting) are fine and are not flagged.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "forbid order-sensitive work (event scheduling, model-code calls, exported-slice " +
		"appends, output writes) inside range-over-map bodies, whose iteration order is " +
		"randomized per run",
	Run: runMapRange,
}

// outputWriters are fmt functions that emit bytes; emitting them in map
// order makes reports and exported files differ run to run.
var outputWriters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, rs)
			return true
		})
	}
	return nil
}

// checkMapRangeBody walks one map-range body (including nested function
// literals, whose closures capture loop variables in map order) and
// reports order-sensitive operations.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkMapRangeCall(pass, call, rs)
		}
		return true
	})
}

// declaredWithin reports whether obj is declared inside the loop (its
// key/value bindings or the body): appends into such slices restart each
// iteration and cannot leak map order out of the loop.
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.Body.End()
}

func checkMapRangeCall(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt) {
	// append to a slice that escapes the function (an exported name, a
	// package-level var, or a struct field): the elements accumulate in
	// map order and that order leaks into results and reports. A local
	// lowercase slice is exempt — the standard fix (collect keys, sort,
	// iterate) depends on exactly that pattern.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				if target := appendTargetObject(pass, call.Args[0]); target != nil &&
					!declaredWithin(target, rs) && escapesFunction(target) {
					pass.Reportf(call.Pos(),
						"append to %q inside a map-range body accumulates elements in randomized map order; iterate sorted keys instead",
						target.Name())
				}
			}
		}
		return
	}

	f := calleeFunc(pass.TypesInfo, call)
	if f == nil {
		return // builtin, conversion, or dynamic call through a value
	}

	switch {
	case isEngineMethod(f, "Schedule", "ScheduleP", "At"):
		pass.Reportf(call.Pos(),
			"Engine.%s inside a map-range body assigns event sequence numbers in randomized map order; iterate sorted keys instead",
			f.Name())
	case funcPkgPath(f) == "fmt" && outputWriters[f.Name()]:
		pass.Reportf(call.Pos(),
			"fmt.%s inside a map-range body emits output in randomized map order; collect and sort first",
			f.Name())
	case isModelCall(pass, f):
		pass.Reportf(call.Pos(),
			"call to %s inside a map-range body may schedule events or mutate simulation state in randomized map order; iterate sorted keys instead",
			f.Name())
	}
}

// isModelCall reports whether f is declared in a model package (this one
// or another rvma/ package). Model functions may schedule events or
// mutate shared simulation state, so invoking them in map order is
// order-sensitive even when this package cannot see the scheduling.
func isModelCall(pass *Pass, f *types.Func) bool {
	path := funcPkgPath(f)
	if path == pass.Pkg.Path() {
		return true
	}
	return len(path) >= len(modelPathPrefix) && path[:len(modelPathPrefix)] == modelPathPrefix
}

// escapesFunction reports whether the append target outlives the
// enclosing function: an exported name, a struct field, or a
// package-level variable.
func escapesFunction(obj types.Object) bool {
	if obj.Exported() {
		return true
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return true
	}
	// Package-level variable: its parent scope is the package scope.
	return obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// appendTargetObject resolves append's first argument to the object it
// names: the identifier itself, or the root of a selector chain (a field
// append mutates state reachable after the loop).
func appendTargetObject(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		// x.f or pkg.Var: report against the field/var being appended to.
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}
