package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LM007 kindconformance: every PayloadKind placed on the wire must be
// recognized on the receive side, and vice versa. The analyzer runs the
// protocol extraction (protocol.go) over the package and reports:
//
//   - a kind sent (Ctx.Send or BroadcastMsg literal) but never matched by any
//     kind switch or guard reachable over the same transport — error: those
//     messages are paid for by the bandwidth meter and then dropped on the
//     floor;
//   - a default-less switch over a p2p payload's Kind that does not cover
//     every kind Ctx.Send places on the wire in the same phase function —
//     error: the missing arm is an unhandled message class;
//   - a match arm for a kind that is never sent — warning (dead arm);
//   - a declared kind neither sent nor matched — warning (dead kind);
//   - a send site whose payload expression cannot be traced to a kind
//     constant — warning: the site is invisible to this analysis and to the
//     exported protocol graph.
//
// Transports must agree: a kind sent point-to-point is matched by handlers
// reading ctx.In(); a broadcast kind by *congest.BroadcastMsg handlers.
// Helpers taking a bare *congest.Payload match either transport.
//
// A point-to-point message is received by the step function of the Run
// that sent it, so its kind must be matched by code that step function
// reaches, not merely somewhere in the package: a phase that sends another
// phase's kind is an error too. The step functions are the handlers that no
// other handler calls (stepGraph); a step reaches the functions it calls and
// the function literals it contains, transitively.
func analyzerKindConformance() *Analyzer {
	return &Analyzer{
		Name: "kindconformance",
		Code: "LM007",
		Doc:  "PayloadKind constants sent and matched must agree across senders and handlers",
		Run:  runKindConformance,
	}
}

// transportsCompatible reports whether a send over `send` can be observed by
// a match classified as `match`.
func transportsCompatible(send, match string) bool {
	return send == match || match == transportAny || send == transportAny
}

func runKindConformance(pass *Pass) {
	if !simulatorScoped(pass.Pkg) || pathBase(pass.Pkg.Path) == "congest" {
		// The engine package defines the types but speaks no protocol of its
		// own; only algorithm packages are checked.
		return
	}
	pp := extractProtocol(pass.Pkg)
	if len(pp.kinds) == 0 {
		return
	}

	for _, pos := range pp.unresolved {
		pass.ReportSeverityf(pos, SeverityWarning,
			"cannot resolve the PayloadKind of this send site; it is invisible to protocol conformance checking")
	}

	// Sent kinds must be matched somewhere compatible.
	matched := func(kc *kindConst, transport string) bool {
		for _, m := range pp.matches {
			if m.kind == kc && transportsCompatible(transport, m.transport) {
				return true
			}
		}
		return false
	}
	g := newStepGraph(pass.Pkg)
	matchedFrom := func(kc *kindConst, step ast.Node) bool {
		for _, m := range pp.matches {
			if m.kind == kc && transportsCompatible(transportSend, m.transport) && g.reaches(step, g.funcAt(m.pos)) {
				return true
			}
		}
		return false
	}
	sentOver := make(map[*kindConst]map[string]bool)
	for _, s := range pp.sends {
		if s.kind == nil {
			continue
		}
		if sentOver[s.kind] == nil {
			sentOver[s.kind] = make(map[string]bool)
		}
		sentOver[s.kind][s.transport] = true
		if !matched(s.kind, s.transport) {
			pass.Reportf(s.pos, "kind %s is sent here (%s) but no handler matches it on that transport", s.kind.name, s.transport)
			continue
		}
		if s.transport != transportSend {
			continue
		}
		for _, step := range g.stepsReaching(g.funcAt(s.pos)) {
			if !matchedFrom(s.kind, step) {
				pass.Reportf(s.pos, "kind %s is sent here (send) but no handler reachable from its step function matches it", s.kind.name)
				break
			}
		}
	}

	// Dead arms: matched kinds that nothing sends.
	for _, m := range pp.matches {
		dead := true
		for tr := range sentOver[m.kind] {
			if transportsCompatible(tr, m.transport) {
				dead = false
				break
			}
		}
		if dead {
			pass.ReportSeverityf(m.pos, SeverityWarning, "kind %s is matched here but never sent over a compatible transport (dead arm)", m.kind.name)
		}
	}

	// Dead kinds: declared but neither sent nor matched.
	for _, kc := range pp.kinds {
		if len(sentOver[kc]) > 0 {
			continue
		}
		used := false
		for _, m := range pp.matches {
			if m.kind == kc {
				used = true
				break
			}
		}
		if !used {
			pass.ReportSeverityf(kc.pos, SeverityWarning, "kind %s is declared but never sent or matched (dead kind)", kc.name)
		}
	}

	// Exhaustiveness: a default-less p2p kind switch must cover every kind
	// Ctx.Send puts on the wire within the same phase function — the switch
	// is that phase's demultiplexer.
	for _, sw := range pp.switches {
		if sw.hasDefault || sw.transport == transportBcast {
			continue
		}
		var missing []string
		for _, s := range pp.sends {
			if s.kind == nil || s.transport != transportSend || s.enclosing != sw.enclosing {
				continue
			}
			if !sw.arms[s.kind] {
				missing = append(missing, s.kind.name)
			}
		}
		missing = dedupeStrings(missing)
		if len(missing) > 0 {
			pass.Reportf(sw.pos, "kind switch is not exhaustive over the kinds sent in %s and has no default: missing %s",
				sw.enclosing, strings.Join(missing, ", "))
		}
	}
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// stepGraph is the package's call graph over its function declarations and
// literals, with its step functions: the handlers (hasHandlerParam) that no
// other handler calls. A broadcast handler counts as one too, but it sends
// nothing point-to-point, so it never reaches a send site. An edge runs from a function
// to each package function it calls (by name, as a method, or through a
// local variable holding a literal) and to each literal it contains.
type stepGraph struct {
	funcs []ast.Node // every FuncDecl with a body and every FuncLit
	edges map[ast.Node][]ast.Node
	steps []ast.Node
	reach map[ast.Node]map[ast.Node]bool // per step: the functions it reaches
}

func newStepGraph(pkg *Package) *stepGraph {
	info := pkg.Info
	g := &stepGraph{edges: make(map[ast.Node][]ast.Node), reach: make(map[ast.Node]map[ast.Node]bool)}
	byObj := make(map[types.Object]ast.Node) // funcs and literal-holding vars
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					g.funcs = append(g.funcs, n)
					if obj := info.Defs[n.Name]; obj != nil {
						byObj[obj] = n
					}
				}
			case *ast.FuncLit:
				g.funcs = append(g.funcs, n)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							if obj := info.ObjectOf(id); obj != nil {
								byObj[obj] = lit
							}
						}
					}
				}
			}
			return true
		})
	}
	called := make(map[ast.Node]bool) // called by a handler
	for _, fn := range g.funcs {
		caller := hasHandlerParam(funcSig(info, fn))
		ast.Inspect(funcBody(fn), func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				g.edges[fn] = append(g.edges[fn], n)
				return false // its own calls are its own edges
			case *ast.CallExpr:
				var obj types.Object
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					obj = info.Uses[fun]
				case *ast.SelectorExpr:
					obj = info.Uses[fun.Sel]
				}
				if callee := byObj[obj]; callee != nil {
					g.edges[fn] = append(g.edges[fn], callee)
					called[callee] = called[callee] || caller
				}
			}
			return true
		})
	}
	for _, fn := range g.funcs {
		if hasHandlerParam(funcSig(info, fn)) && !called[fn] {
			g.steps = append(g.steps, fn)
			seen := map[ast.Node]bool{fn: true}
			for work := []ast.Node{fn}; len(work) > 0; {
				cur := work[len(work)-1]
				work = work[:len(work)-1]
				for _, next := range g.edges[cur] {
					if !seen[next] {
						seen[next] = true
						work = append(work, next)
					}
				}
			}
			g.reach[fn] = seen
		}
	}
	return g
}

// funcAt is the innermost function containing pos.
func (g *stepGraph) funcAt(pos token.Pos) ast.Node {
	var best ast.Node
	for _, fn := range g.funcs {
		if fn.Pos() <= pos && pos < fn.End() && (best == nil || best.Pos() <= fn.Pos() && fn.End() <= best.End()) {
			best = fn
		}
	}
	return best
}

// reaches reports whether step reaches fn.
func (g *stepGraph) reaches(step, fn ast.Node) bool { return g.reach[step][fn] }

// stepsReaching lists the step functions that reach fn.
func (g *stepGraph) stepsReaching(fn ast.Node) []ast.Node {
	var out []ast.Node
	for _, step := range g.steps {
		if g.reaches(step, fn) {
			out = append(out, step)
		}
	}
	return out
}
