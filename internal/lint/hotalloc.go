package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc structurally guards the event hot path's zero-allocation
// property (the runtime bench gate only catches a regression when the
// benchmark runs; this proves it for every build).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocations (capturing closures, bound method values, map/slice " +
		"literals, make/new, append growth, interface boxing) in functions reachable from a //rvmalint:hot " +
		"root, seeded with sim.Engine's schedule/pop path. Panic-only paths and " +
		"branches pruned by build-time constants (if sim.DebugEnabled) are exempt",
	Run: runHotAlloc,
}

// allocSite is one potential heap allocation inside a function.
type allocSite struct {
	pos  token.Pos
	what string
}

// callSite is one static call on a non-panic live path.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// computeAllocSummary scans the function's live, non-panic blocks for
// allocation sites and static calls, caches them on the funcInfo, and
// folds the result into the function's call summary. Runs bottom-up, so
// intra-package callee summaries are already final.
func computeAllocSummary(ctx *flowCtx, fi *funcInfo) {
	info := ctx.pkg.TypesInfo
	for _, b := range fi.graph.Blocks {
		if !b.Live || b.Panics {
			continue
		}
		for _, n := range b.Nodes {
			scanAllocs(info, n, &fi.allocs, &fi.hotCalls)
		}
	}
	if fi.obj == nil {
		return
	}
	sum := ctx.sums.GetOrCreate(fi.obj)
	sum.Allocates = false
	sum.AllocWhat = ""
	if len(fi.allocs) > 0 {
		sum.Allocates = true
		sum.AllocWhat = fi.allocs[0].what
	}
	for _, c := range fi.hotCalls {
		if cs := ctx.sums.Get(c.callee); cs != nil && cs.Allocates && !sum.Allocates {
			sum.Allocates = true
			sum.AllocWhat = "call to " + c.callee.Name() + " (" + cs.AllocWhat + ")"
		}
	}
}

// scanAllocs walks one CFG node recording allocation sites and static
// calls. Function-literal bodies are skipped — a closure's body runs
// when the closure is invoked, not where it is written — but the
// literal itself is an allocation when it captures variables. So is a
// method value (x.m used as a value, not called): it binds x in a
// closure.
func scanAllocs(info *types.Info, n ast.Node, allocs *[]allocSite, calls *[]callSite) {
	called := make(map[ast.Expr]bool) // the Fun of every call seen, which is not a method value
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if capturesVariables(info, x) {
				*allocs = append(*allocs, allocSite{x.Pos(), "closure capturing outer variables"})
			}
			return false
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal && !called[x] {
				*allocs = append(*allocs, allocSite{x.Pos(), "bound method value " + x.Sel.Name})
			}
		case *ast.CompositeLit:
			if tv := info.Types[x]; tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					*allocs = append(*allocs, allocSite{x.Pos(), "map literal"})
				case *types.Slice:
					*allocs = append(*allocs, allocSite{x.Pos(), "slice literal"})
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					*allocs = append(*allocs, allocSite{x.Pos(), "&composite literal"})
				}
			}
		case *ast.CallExpr:
			called[ast.Unparen(x.Fun)] = true
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						*allocs = append(*allocs, allocSite{x.Pos(), "make"})
					case "new":
						*allocs = append(*allocs, allocSite{x.Pos(), "new"})
					case "append":
						*allocs = append(*allocs, allocSite{x.Pos(), "append (may grow the backing array)"})
					}
					return true
				}
			}
			if callee := calleeFunc(info, x); callee != nil {
				*calls = append(*calls, callSite{x.Pos(), callee})
				if site := boxingSite(info, x, callee); site != nil {
					*allocs = append(*allocs, *site)
				}
			}
		}
		return true
	})
}

// boxingSite reports an interface-boxing allocation: a non-constant
// concrete value passed where the callee takes an interface (including
// the hidden slice of a variadic any call). An untyped nil converts to
// the nil interface, which allocates nothing.
func boxingSite(info *types.Info, call *ast.CallExpr, callee *types.Func) *allocSite {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv := info.Types[arg]
		if tv.Value != nil || tv.Type == nil {
			continue // constants are boxed at compile time into static data
		}
		if tv.IsNil() {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // already an interface, or one pointer word (boxes without copying)
		}
		return &allocSite{arg.Pos(), "interface boxing of " + tv.Type.String() + " argument to " + callee.Name()}
	}
	return nil
}

// capturesVariables reports whether the literal references variables
// declared outside its own body (package-level state excluded: it needs
// no capture slot).
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package scope
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// runHotAlloc computes the hot set — functions whose doc comment carries
// //rvmalint:hot plus everything they statically call within the package
// on live non-panic paths — and reports every allocation site inside it,
// plus calls that leave the package into a summarized allocating callee.
func runHotAlloc(pass *Pass) error {
	ctx := pass.fl
	if ctx == nil {
		return nil
	}

	roots := make(map[*funcInfo]string)
	for _, fi := range ctx.funcs {
		if fi.decl != nil && fi.decl.Doc != nil {
			for _, c := range fi.decl.Doc.List {
				// Exact directive form only: prose that merely mentions
				// the marker must not turn a function into a root.
				if rest, ok := strings.CutPrefix(c.Text, "//rvmalint:hot"); ok &&
					(rest == "" || rest[0] == ' ' || rest[0] == '\t') {
					roots[fi] = fi.name
				}
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Reachability: breadth-first over static calls, tracking which root
	// each function was reached from for the diagnostic.
	rootOf := make(map[*funcInfo]string)
	var queue []*funcInfo
	for _, fi := range ctx.funcs { // ctx.funcs order keeps output deterministic
		if name, ok := roots[fi]; ok {
			rootOf[fi] = name
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, c := range fi.hotCalls {
			if ci := ctx.byObj[c.callee]; ci != nil {
				if _, seen := rootOf[ci]; !seen {
					rootOf[ci] = rootOf[fi]
					queue = append(queue, ci)
				}
			}
		}
	}

	for _, fi := range ctx.funcs {
		root, hot := rootOf[fi]
		if !hot {
			continue
		}
		via := ""
		if fi.name != root {
			via = " (reachable from " + root + ")"
		}
		for _, a := range fi.allocs {
			pass.Reportf(a.pos, "%s allocates on the hot path in %s%s; the event loop must stay 0-alloc",
				a.what, fi.name, via)
		}
		for _, c := range fi.hotCalls {
			if ctx.byObj[c.callee] != nil {
				continue // in-package: reported at its own sites
			}
			if cs := ctx.sums.Get(c.callee); cs != nil && cs.Allocates {
				pass.Reportf(c.pos, "call to %s allocates (%s) on the hot path in %s%s",
					c.callee.Name(), cs.AllocWhat, fi.name, via)
			}
		}
	}
	return nil
}
