package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpathalloc enforces the PR 5 hot-path contract (~1 allocation per batch)
// by construction instead of benchmark vigilance: a function whose doc
// comment carries
//
//	//jetlint:hotpath
//
// may not contain allocation-inducing constructs on any path that can reach
// a successful exit. Error paths — blocks that only flow into returns whose
// final result is a non-nil error, or into panics — are exempt, so building
// a rich error message stays free. The banned constructs:
//
//   - make of any kind and new(T) — a sanctioned once-per-batch allocation
//     is documented with //jetlint:allow hotpathalloc -- reason
//   - map/slice composite literals and &T{} (plain T{} value literals are
//     stack-allocated and fine)
//   - append whose destination is not visibly capacity-bounded in the same
//     function (assigned from a reslice like buf[:0] or a 3-arg make)
//   - func literals that capture enclosing variables (each call allocates
//     the closure; non-capturing literals compile to static functions)
//   - passing a non-pointer concrete value to an interface parameter
//     (boxing), the classic sort.Slice/fmt tax
//   - any call into package fmt, and string concatenation with +
//
// The seed annotations sit on the four per-batch/per-round drains:
// (*graph.CSR).ApplyDelta, (*queue.Coalescing).DrainRound,
// (*engine.peWorker).round, and (*window.Ring).Expire.
var Hotpathalloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//jetlint:hotpath functions must not allocate on non-error paths",
	Run:  runHotpathalloc,
}

const hotpathMarker = "//jetlint:hotpath"

func isHotpathFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

func runHotpathalloc(pass *Pass) {
	for _, pkg := range pass.Mod.Pkgs {
		for _, f := range pkg.Files {
			funcsOfFile(f, func(fd *ast.FuncDecl) {
				if isHotpathFunc(fd) {
					checkHotpathFunc(pass, pkg, fd)
				}
			})
		}
	}
}

func checkHotpathFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	g := BuildCFG(fd.Body)
	hasErr, nresults := returnsError(pkg.Info, fd)
	onSuccess := successReachable(g, hasErr, nresults)
	safeDsts := appendSafeDests(pkg, fd.Body)
	for _, b := range g.Blocks {
		if !onSuccess[b.Index] {
			continue
		}
		for _, node := range b.Nodes {
			scanHotNode(pass, pkg, node, safeDsts)
		}
	}
}

// successReachable marks every block that can reach a successful function
// exit. Success terminals are blocks ending in a return whose final result
// is not a definite non-nil error, and blocks that fall off the end of the
// body (the implicit return). Panic blocks and definite error returns are
// failure terminals. Every return and panic block stops forward flow (their
// only successor is the synthetic Exit), so marking is exact backward
// reachability from the success terminals.
func successReachable(g *CFG, hasErr bool, nresults int) []bool {
	ok := make([]bool, len(g.Blocks))
	var queue []*Block
	for _, b := range g.Blocks {
		if b == g.Exit || b.Panics {
			continue
		}
		success := false
		if endsWithReturn(b) {
			ret := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
			success = !hasErr || !isErrorReturn(ret, nresults)
		} else {
			success = endsAtExit(b, g) // fall-off-the-end implicit return
		}
		if success {
			ok[b.Index] = true
			queue = append(queue, b)
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, e := range b.Preds {
			if p := e.From; !ok[p.Index] {
				ok[p.Index] = true
				queue = append(queue, p)
			}
		}
	}
	// A block exempt from the check must actually reach a failure terminal:
	// code inside a loop that never exits (a worker's forever-drain) reaches
	// no terminal at all, and is the hottest path of the function, not an
	// error path.
	fails := make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		if b.Panics {
			fails[b.Index] = true
			queue = append(queue, b)
			continue
		}
		if b != g.Exit && endsWithReturn(b) {
			ret := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
			if hasErr && isErrorReturn(ret, nresults) {
				fails[b.Index] = true
				queue = append(queue, b)
			}
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, e := range b.Preds {
			if p := e.From; !fails[p.Index] {
				fails[p.Index] = true
				queue = append(queue, p)
			}
		}
	}
	for i := range ok {
		if !fails[i] {
			ok[i] = true
		}
	}
	ok[g.Exit.Index] = false // synthetic, never has nodes
	return ok
}

// appendSafeDests collects the objects that appends may grow without a
// diagnostic: variables assigned from a reslice (buf[:0], x[a:b]) or from a
// capacity-hinted 3-arg make anywhere in the function.
func appendSafeDests(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	safe := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			hinted := false
			switch r := rhs.(type) {
			case *ast.SliceExpr:
				hinted = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "make" && len(r.Args) == 3 {
					hinted = true
				}
			}
			if !hinted {
				continue
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				safe[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				safe[obj] = true
			}
		}
		return true
	})
	return safe
}

// scanHotNode walks one CFG node reporting banned constructs. Nested func
// literals are reported as a unit (when they capture) but their bodies are
// not scanned: the closure body runs under its own annotation if hot.
func scanHotNode(pass *Pass, pkg *Package, node ast.Node, safeDsts map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := closureCaptures(pkg, n); capt != "" {
				pass.Reportf(n.Pos(), "hot path: func literal captures %s and allocates a closure per call; hoist it or pass state explicitly", capt)
			}
			return false
		case *ast.CompositeLit:
			tv, ok := pkg.Info.Types[n]
			if ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "hot path: map literal allocates; hoist into a reused scratch structure")
				case *types.Slice:
					pass.Reportf(n.Pos(), "hot path: slice literal allocates per call; hoist into a reused buffer")
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path: &T{} heap-allocates per call; reuse a scratch value")
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pkg.Info.Types[n.X]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "hot path: string concatenation allocates; use a reused []byte or precomputed strings")
						return false
					}
				}
			}
		case *ast.CallExpr:
			scanHotCall(pass, pkg, n, safeDsts)
		}
		return true
	})
}

func scanHotCall(pass *Pass, pkg *Package, call *ast.CallExpr, safeDsts map[types.Object]bool) {
	switch obj := callee(pkg.Info, call).(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			pass.Reportf(call.Pos(), "hot path: make allocates per call; hoist into a reused scratch buffer (a sanctioned per-batch allocation takes //jetlint:allow hotpathalloc -- reason)")
		case "new":
			pass.Reportf(call.Pos(), "hot path: new(T) heap-allocates per call; reuse a scratch value")
		case "append":
			if len(call.Args) == 0 {
				return
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil && safeDsts[obj] {
					return // destination visibly capacity-bounded
				}
			}
			pass.Reportf(call.Pos(), "hot path: append may grow its backing array; append into a buffer resliced from a reused allocation (buf[:0])")
		}
		return
	case *types.Func:
		if p := obj.Pkg(); p != nil && p.Path() == "fmt" {
			pass.Reportf(call.Pos(), "hot path: fmt.%s allocates (formatting boxes every operand); keep formatting off the hot path", obj.Name())
			return
		}
	}
	// Interface boxing of non-pointer concrete arguments.
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return // builtin, conversion, or type expression
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		t := at.Type
		if at.IsNil() {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // reference-shaped: no boxing allocation
		}
		pass.Reportf(arg.Pos(), "hot path: passing %s to an interface parameter boxes the value per call; use a concrete or generic API", types.TypeString(t, types.RelativeTo(pkg.Pkg)))
	}
}

// closureCaptures returns a short description of the first enclosing
// variable a func literal captures, or "" if it captures nothing.
func closureCaptures(pkg *Package, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured.
		if v.Parent() == pkg.Pkg.Scope() {
			return true
		}
		// Declared outside the literal's extent → captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = v.Name()
		}
		return true
	})
	return found
}
