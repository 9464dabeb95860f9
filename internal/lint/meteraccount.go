package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerMeterAccount builds the LM002 analyzer: allocations made by
// per-vertex handler code (make of a map or slice, append, map/slice
// composite literals, map inserts) must be paired with a congest.Meter
// charge in the same function, or carry an explicit
// //lint:waive meteraccount <reason> waiver.
// Unmetered allocation in a handler is exactly how the paper's per-vertex
// memory bounds (Theorems 2 and 3) silently rot: the Go heap grows, the
// meter doesn't. Ctx.Body appends a received message's body to its second
// argument, so it is checked as an append.
//
// One carve-out: appends (and Ctx.Body calls) whose destination derives
// from Ctx.Scratch are exempt. Ctx.Scratch is the step's reusable buffer for
// a body being encoded or read: Send copies it into the edge's ring, which
// is accounted as message words, not vertex memory, so charging a meter for
// it would double-count.
//
// A second carve-out: buffers whose identifier ends in "Seen" are the fault
// layer's duplicate-suppression state (see treeroute's sizeSeen/lightSeen).
// They exist only when a fault plan is active, are sized by local degree,
// and model the retry protocol's receiver-side dedup filter rather than
// algorithm state — the paper's memory bounds describe the fault-free
// algorithm, so charging them would skew the clean-run meter comparison.
// The suffix is the contract: name a buffer "...Seen" only for that role.
//
// A third carve-out: allocations inside the argument span of a call into
// the metrics package (package base name "obs"). Those build observability
// plumbing — snapshot values, metric names — on the host, outside the
// simulated vertex's memory, so the paper's bounds don't cover them. The
// exemption is scoped to the call's argument list; it must not leak to
// neighbouring allocations.
//
// A fourth carve-out: the dataplane package is exempt wholesale. Its
// compiled route tables are immutable after Compile — at handler time the
// package only reads flat arrays shared through an atomic pointer, and the
// arrays themselves are flattened on the host from a Scheme whose memory
// was already metered when the control plane built it. Charging the
// flattening again would double-count the table against the paper's
// per-vertex bounds, so LM002 skips the package entirely.
func analyzerMeterAccount() *Analyzer {
	return &Analyzer{
		Name: "meteraccount",
		Code: "LM002",
		Doc:  "handler allocations must be charged to the vertex's Meter or waived",
		Run:  runMeterAccount,
	}
}

func runMeterAccount(p *Pass) {
	// The congest engine itself manages the meters; the rule targets the
	// algorithm phase packages. The dataplane package is read-only at
	// handler time (immutable compiled tables, see the doc comment), so the
	// allocation rule skips it wholesale.
	if !simulatorScoped(p.Pkg) || pathBase(p.Pkg.Path) == "congest" || pathBase(p.Pkg.Path) == "dataplane" {
		return
	}
	info := p.Pkg.Info

	// isScratchCall reports whether e is (or contains) a Ctx.Scratch call.
	isScratchCall := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			found = ctxMethodCall(info, call) == "Scratch"
			return !found
		})
		return found
	}

	for _, h := range vertexHandlers(p.Pkg) {
		// scratch holds locals whose value derives from Ctx.Scratch
		// (directly or via re-slicing/appending); appends into them are
		// accounted as message words.
		scratch := make(map[types.Object]bool)
		markLHS := func(lhs ast.Expr) {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					scratch[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					scratch[obj] = true
				}
			}
		}
		ast.Inspect(h.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if isScratchCall(rhs) {
						markLHS(as.Lhs[i])
					}
				}
			} else if len(as.Rhs) == 1 && isScratchCall(as.Rhs[0]) {
				for _, lhs := range as.Lhs {
					markLHS(lhs)
				}
			}
			return true
		})
		isScratch := func(e ast.Expr) bool {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.SliceExpr:
					e = x.X
				case *ast.Ident:
					if obj := info.Uses[x]; obj != nil && scratch[obj] {
						return true
					}
					return false
				default:
					return isScratchCall(e)
				}
			}
		}

		// seenSpans collects RHS ranges of assignments into "...Seen"
		// buffers, so their make/composite-literal allocations are exempt.
		type span struct{ pos, end token.Pos }
		var seenSpans []span
		ast.Inspect(h.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if !isSeenBuffer(lhs) {
					continue
				}
				if len(as.Lhs) == len(as.Rhs) {
					seenSpans = append(seenSpans, span{as.Rhs[i].Pos(), as.Rhs[i].End()})
				} else if len(as.Rhs) == 1 {
					seenSpans = append(seenSpans, span{as.Rhs[0].Pos(), as.Rhs[0].End()})
				}
			}
			return true
		})
		inSeenSpan := func(n ast.Node) bool {
			for _, s := range seenSpans {
				if n.Pos() >= s.pos && n.End() <= s.end {
					return true
				}
			}
			return false
		}

		// obsSpans collects argument-list ranges of calls into the obs
		// metrics package; allocations inside them are host-side
		// observability plumbing, not vertex state.
		var obsSpans []span
		ast.Inspect(h.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && len(call.Args) > 0 && isObsCall(info, call) {
				obsSpans = append(obsSpans, span{call.Args[0].Pos(), call.Args[len(call.Args)-1].End()})
			}
			return true
		})
		inObsSpan := func(n ast.Node) bool {
			for _, s := range obsSpans {
				if n.Pos() >= s.pos && n.End() <= s.end {
					return true
				}
			}
			return false
		}

		charged := make(map[ast.Node]bool) // enclosing funcs known to charge
		hasCharge := func(fn ast.Node) bool {
			if v, ok := charged[fn]; ok {
				return v
			}
			found := false
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || found {
					return !found
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal &&
						isCongestNamed(s.Recv(), "Meter") &&
						(sel.Sel.Name == "Charge" || sel.Sel.Name == "Spike") {
						found = true
					}
				}
				return !found
			})
			charged[fn] = found
			return found
		}

		report := func(n ast.Node, what string) {
			if inSeenSpan(n) {
				return // fault-layer dedup buffer: deliberately unmetered
			}
			if inObsSpan(n) {
				return // argument to an obs metrics call: host-side, unmetered
			}
			if hasCharge(enclosingFunc(h.node, n)) {
				return
			}
			p.Reportf(n.Pos(), "%s in per-vertex handler code with no Meter charge in the same function; charge it via ctx.Mem() or waive with //lint:waive meteraccount <reason>", what)
		}

		ast.Inspect(h.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "make":
							if tv, ok := info.Types[n]; ok && isMapOrSlice(tv.Type) {
								report(n, "make allocates")
							}
						case "append":
							if len(n.Args) > 0 && (isScratch(n.Args[0]) || isSeenBuffer(n.Args[0])) {
								break // Ctx.Scratch or fault-layer dedup buffer
							}
							report(n, "append allocates")
						}
					}
				}
				if ctxMethodCall(info, n) == "Body" && len(n.Args) == 2 && !isScratch(n.Args[1]) && !isSeenBuffer(n.Args[1]) {
					report(n, "Ctx.Body appends")
				}
			case *ast.CompositeLit:
				if tv, ok := info.Types[n]; ok && isMapOrSlice(tv.Type) {
					report(n, "composite literal allocates")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					ix, ok := lhs.(*ast.IndexExpr)
					if !ok || isSeenBuffer(ix.X) {
						continue
					}
					if tv, ok := info.Types[ix.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							report(ix, "map insert retains state")
						}
					}
				}
			}
			return true
		})
	}
}

// isSeenBuffer reports whether e names (possibly through indexing or
// re-slicing) a buffer whose identifier carries the "Seen" suffix — the
// naming contract for the fault layer's duplicate-suppression state.
func isSeenBuffer(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			return strings.HasSuffix(x.Sel.Name, "Seen")
		case *ast.Ident:
			return strings.HasSuffix(x.Name, "Seen")
		default:
			return false
		}
	}
}

// isObsCall reports whether call invokes a function or method of the obs
// metrics package: a method whose receiver type is declared in a package
// base-named "obs", or a package-qualified obs.F call. Matching is by
// package base name, like isCongestNamed, so fixtures resolve identically
// to the real tree.
func isObsCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		t := s.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj != nil && obj.Pkg() != nil && pathBase(obj.Pkg().Path()) == "obs"
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			return pathBase(pn.Imported().Path()) == "obs"
		}
	}
	return false
}

func isMapOrSlice(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}
