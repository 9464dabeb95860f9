package lint

import (
	"go/ast"
	"go/types"
)

// analyzerCongestIsolation builds the LM001 analyzer: code running as a
// simulated vertex (step functions, broadcast handlers) may not touch
// package-level mutable state, other vertices' meters, or the engine — the
// only channel across vertex boundaries is the message/broadcast API. This
// is what makes the per-vertex memory meters (Theorem 2's O(log n) words)
// trustworthy: state a handler can reach without a message is state the
// meter never saw.
func analyzerCongestIsolation() *Analyzer {
	return &Analyzer{
		Name: "congestisolation",
		Code: "LM001",
		Doc:  "vertex handlers may not touch globals, other vertices' meters, or the engine",
		Run:  runCongestIsolation,
	}
}

// engineMethods are Simulator methods a vertex handler must not call: they
// drive the whole simulation.
var engineMethods = map[string]bool{
	"Run":          true,
	"Broadcast":    true,
	"Convergecast": true,
	"AddRounds":    true,
}

func runCongestIsolation(p *Pass) {
	if !simulatorScoped(p.Pkg) {
		return
	}
	info := p.Pkg.Info
	pkgScope := p.Pkg.Types.Scope()

	for _, h := range vertexHandlers(p.Pkg) {
		vertexObj := h.vertexParam
		ast.Inspect(h.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				v, ok := obj.(*types.Var)
				if !ok || v.Parent() != pkgScope {
					return true
				}
				p.Reportf(n.Pos(), "vertex handler references package-level variable %s; per-vertex code may only touch its own state and the message API", n.Name)
			case *ast.CallExpr:
				name := simulatorMethodCall(info, n)
				switch {
				case name == "":
				case name == "Mem":
					if len(n.Args) != 1 {
						break
					}
					if id, ok := n.Args[0].(*ast.Ident); ok && vertexObj != nil && info.Uses[id] == vertexObj {
						break // own meter: allowed
					}
					p.Reportf(n.Pos(), "vertex handler accesses another vertex's meter via Simulator.Mem; use ctx.Mem() or the handler's own vertex id")
				case engineMethods[name]:
					p.Reportf(n.Pos(), "vertex handler calls Simulator.%s; handlers may not drive the engine", name)
				}
			}
			return true
		})
	}
}
