package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"rvma/internal/lint/flow"
)

// funcInfo is one analyzed function body: a declared function or method,
// or a function literal (analyzed standalone so sources and sinks that
// live entirely inside a scheduled closure are still connected).
type funcInfo struct {
	// decl is nil for function literals.
	decl *ast.FuncDecl
	// lit is nil for declared functions.
	lit *ast.FuncLit
	// obj is the type-checker object for declared functions, nil for lits.
	obj *types.Func
	// name renders the function for diagnostics ("Engine.Schedule",
	// "Put.func1").
	name string
	// graph is the function body's control-flow graph.
	graph *flow.Graph
	// callees are the intra-package declared functions this body calls
	// statically (used for bottom-up ordering and hot-path reachability).
	callees []*funcInfo
	// allocs and hotCalls are the allocation and static-call sites on
	// live non-panic paths, cached by computeAllocSummary.
	allocs   []allocSite
	hotCalls []callSite
}

// sig returns the function's signature, or nil for literals whose type
// could not be resolved.
func (fi *funcInfo) sig(info *types.Info) *types.Signature {
	if fi.obj != nil {
		s, _ := fi.obj.Type().(*types.Signature)
		return s
	}
	if fi.lit != nil {
		if tv, ok := info.Types[fi.lit]; ok {
			s, _ := tv.Type.(*types.Signature)
			return s
		}
	}
	return nil
}

// body returns the function's statement list.
func (fi *funcInfo) body() *ast.BlockStmt {
	if fi.decl != nil {
		return fi.decl.Body
	}
	return fi.lit.Body
}

// flowCtx is the dataflow view of one package shared by the flow-based
// analyzers: every function body's CFG, a bottom-up analysis order, and
// the call-summary store.
type flowCtx struct {
	pkg *Package
	// funcs is every analyzed body in bottom-up order: intra-package
	// callees come before their callers, so summaries exist before use.
	funcs []*funcInfo
	// byObj maps declared functions to their info.
	byObj map[*types.Func]*funcInfo
	// sums is the package's own summary store. Its keys are the type
	// checker's *types.Func objects, and a dependency is checked from its
	// export data, whose objects differ from the ones its own source check
	// stored, so a store shared across packages would never serve a
	// summary across them: it would only grow.
	sums flow.Store
	// taintFindings are detaint diagnostics recorded while summaries were
	// computed, replayed when the analyzer runs.
	taintFindings []taintFinding
}

// buildFlowCtx lowers every function body in the package to a CFG,
// orders bodies bottom-up over the intra-package call graph, and
// computes call summaries in that order.
func buildFlowCtx(pkg *Package) *flowCtx {
	ctx := &flowCtx{
		pkg:   pkg,
		byObj: make(map[*types.Func]*funcInfo),
		sums:  flow.Store{},
	}

	// Collect declared functions and methods in source order, then the
	// function literals inside each (named after their host declaration).
	var source []*funcInfo
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			fi := &funcInfo{decl: fd, obj: obj, name: declName(fd)}
			fi.graph = flow.New(fd.Body, pkg.TypesInfo)
			source = append(source, fi)
			if obj != nil {
				ctx.byObj[obj] = fi
			}
			litIndex := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				litIndex++
				li := &funcInfo{
					lit:  lit,
					name: fmt.Sprintf("%s.func%d", fi.name, litIndex),
				}
				li.graph = flow.New(lit.Body, pkg.TypesInfo)
				source = append(source, li)
				// Keep descending: nested literals get their own entry;
				// analyzing an inner body twice (once nested, once standalone)
				// is avoided because the CFG of the outer literal treats the
				// inner literal as an opaque expression.
				return true
			})
		}
	}

	// Resolve intra-package call edges.
	for _, fi := range source {
		seen := make(map[*funcInfo]bool)
		ast.Inspect(fi.body(), func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeFunc(pkg.TypesInfo, call); callee != nil {
					if ci := ctx.byObj[callee]; ci != nil && ci != fi && !seen[ci] {
						seen[ci] = true
						fi.callees = append(fi.callees, ci)
					}
				}
			}
			return true
		})
	}

	// Bottom-up order: DFS postorder over the call graph, roots in
	// source order. Recursion cycles break at the back edge; members of a
	// cycle get summaries computed with whatever is known so far, which
	// is conservative (an absent summary means "unknown callee").
	visited := make(map[*funcInfo]bool)
	var visit func(fi *funcInfo)
	visit = func(fi *funcInfo) {
		if visited[fi] {
			return
		}
		visited[fi] = true
		for _, c := range fi.callees {
			visit(c)
		}
		ctx.funcs = append(ctx.funcs, fi)
	}
	for _, fi := range source {
		visit(fi)
	}

	for _, fi := range ctx.funcs {
		computeTaintSummary(ctx, fi)
		computeAllocSummary(ctx, fi)
	}
	return ctx
}

// declName renders a FuncDecl for diagnostics as Recv.Name or Name.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
		if idx, ok := t.(*ast.IndexExpr); ok {
			if id, ok := idx.X.(*ast.Ident); ok {
				return id.Name + "." + fd.Name.Name
			}
		}
	}
	return fd.Name.Name
}
