package lint

import (
	"go/ast"
	"go/types"
)

// handler is one piece of per-vertex code: a function executed as a
// simulated CONGEST processor. Two shapes qualify:
//
//   - any function (declaration or literal) with a *congest.Ctx parameter —
//     step functions and their helpers — or a *congest.Delivery parameter —
//     Broadcast handlers and their helpers, however they reach Broadcast
//     (a literal, a named function, a method value stored in a field);
//   - function literals (or locally declared functions) passed as the
//     handler argument of Simulator.Convergecast, whose *BroadcastMsg
//     parameter does not mark a handler by itself.
//
// vertexParam is the parameter holding the executing vertex's id (the first
// int parameter), nil when the signature has none (Convergecast handlers).
type handler struct {
	node        ast.Node // *ast.FuncLit or *ast.FuncDecl
	body        *ast.BlockStmt
	vertexParam types.Object
}

// isCongestNamed reports whether t is (a pointer to) the named type
// congest.<name>. Matching is by package base name so that fixtures, the real
// tree, and the congest package itself all resolve identically.
func isCongestNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && pathBase(obj.Pkg().Path()) == "congest" && obj.Name() == name
}

// funcSig returns the signature of a FuncDecl or FuncLit, or nil.
func funcSig(info *types.Info, n ast.Node) *types.Signature {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
			return obj.Type().(*types.Signature)
		}
	case *ast.FuncLit:
		if tv, ok := info.Types[fn]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

func funcBody(n ast.Node) *ast.BlockStmt {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// firstIntParam returns the object of the first parameter of basic type int.
func firstIntParam(info *types.Info, n ast.Node, sig *types.Signature) types.Object {
	var fields *ast.FieldList
	switch fn := n.(type) {
	case *ast.FuncDecl:
		fields = fn.Type.Params
	case *ast.FuncLit:
		fields = fn.Type.Params
	}
	if fields == nil {
		return nil
	}
	for _, f := range fields.List {
		for _, name := range f.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().(*types.Basic); ok && b.Kind() == types.Int {
				return obj
			}
		}
	}
	_ = sig
	return nil
}

// hasHandlerParam reports whether sig takes a *congest.Ctx or a
// *congest.Delivery: the parameters only per-vertex code receives.
func hasHandlerParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isCongestNamed(t, "Ctx") || isCongestNamed(t, "Delivery") {
			return true
		}
	}
	return false
}

// simulatorMethodCall returns the method name if call invokes a method of
// congest.Simulator, else "".
func simulatorMethodCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	if !isCongestNamed(selection.Recv(), "Simulator") {
		return ""
	}
	return sel.Sel.Name
}

// vertexHandlers finds every handler in pkg. Only outermost handlers are
// returned: a handler nested (syntactically) inside another is analyzed as
// part of the enclosing one.
func vertexHandlers(pkg *Package) []handler {
	info := pkg.Info

	// Map from function objects to their declarations, to resolve handlers
	// passed by name.
	declOf := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := info.Defs[fd.Name]; obj != nil {
					declOf[obj] = fd
				}
			}
		}
	}

	seen := make(map[ast.Node]bool)
	var out []handler
	add := func(n ast.Node) {
		if n == nil || seen[n] {
			return
		}
		body := funcBody(n)
		if body == nil {
			return
		}
		sig := funcSig(info, n)
		seen[n] = true
		out = append(out, handler{node: n, body: body, vertexParam: firstIntParam(info, n, sig)})
	}

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if hasHandlerParam(funcSig(info, n)) {
					add(n)
				}
			case *ast.FuncLit:
				if hasHandlerParam(funcSig(info, n)) {
					add(n)
				}
			case *ast.CallExpr:
				const argIdx = 2 // Convergecast(sink, msgs, handle)
				if simulatorMethodCall(info, n) != "Convergecast" || argIdx >= len(n.Args) {
					return true
				}
				switch arg := n.Args[argIdx].(type) {
				case *ast.FuncLit:
					add(arg)
				case *ast.Ident:
					if obj := info.Uses[arg]; obj != nil {
						if fd := declOf[obj]; fd != nil {
							add(fd)
						}
					}
				}
			}
			return true
		})
	}

	// Drop handlers syntactically contained in another handler.
	var roots []handler
	for _, h := range out {
		contained := false
		for _, other := range out {
			if other.node != h.node && other.node.Pos() <= h.node.Pos() && h.node.End() <= other.node.End() {
				contained = true
				break
			}
		}
		if !contained {
			roots = append(roots, h)
		}
	}
	return roots
}

// enclosingFunc returns the innermost FuncLit/FuncDecl in root that strictly
// contains pos (root itself when no literal does).
func enclosingFunc(root ast.Node, pos ast.Node) ast.Node {
	innermost := root
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != root {
			if lit.Pos() <= pos.Pos() && pos.End() <= lit.End() {
				innermost = lit
			}
		}
		return true
	})
	return innermost
}
