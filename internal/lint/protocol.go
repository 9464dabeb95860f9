package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Protocol extraction: the shared front end of the kind-conformance (LM007)
// and codec-symmetry (LM008) analyzers and of the exported protocol graph.
// For one package it recovers the wire contract that is otherwise implicit:
// which PayloadKind constants exist, where each kind is placed on the wire
// (Ctx.Send calls and BroadcastMsg literals), where each kind is matched on
// the receive side (kind switches and ==/!= guards), and which inline words
// are encoded and decoded with which codec.

// kindConst is one package-level constant of type congest.PayloadKind.
type kindConst struct {
	obj  types.Object
	name string
	val  uint64
	pos  token.Pos
}

// sendSite is one point where a payload enters the wire: a Ctx.Send call or
// a congest.BroadcastMsg composite literal.
type sendSite struct {
	pos       token.Pos
	transport string            // "send" | "broadcast"
	kind      *kindConst        // nil when unresolved or zero-kind
	kindZero  bool              // explicit zero payload ("no payload")
	relay     bool              // forwards a received payload value verbatim
	lit       *ast.CompositeLit // the congest.Payload literal; nil for relays
	fields    map[int]ast.Expr  // Wi index -> value expression (lit only)
	hasBody   bool              // carries a body (Send's body argument, BroadcastMsg.Body)
	wordsExpr ast.Expr          // words argument / Words field value
	enclosing string            // enclosing top-level function, for the graph
}

// matchSite is one receive-side recognition of a kind: a case arm in a
// switch over .Kind, or a ==/!= comparison against a kind constant.
type matchSite struct {
	pos       token.Pos
	kind      *kindConst
	transport string // "send" | "broadcast" | "any"
	form      string // "switch" | "guard"
	enclosing string
}

// decodeSite is one read of an inline payload word on the receive side.
type decodeSite struct {
	pos   token.Pos
	kind  *kindConst
	wi    int
	codec string // "int" | "float" | "bool" | "raw"
}

// kindSwitch is one `switch X.Kind` statement, kept for the exhaustiveness
// check: arms must cover every kind sent by the same phase.
type kindSwitch struct {
	pos        token.Pos
	transport  string
	hasDefault bool
	arms       map[*kindConst]bool
	enclosing  string
}

// pkgProtocol is everything extracted from one package.
type pkgProtocol struct {
	pkg      *Package
	kinds    []*kindConst
	byObj    map[types.Object]*kindConst
	byVal    map[uint64]*kindConst
	sends    []*sendSite
	matches  []*matchSite
	decodes  []*decodeSite
	switches []*kindSwitch
	// unresolved send sites: the payload expression could not be traced to a
	// kind constant, so the graph (and the conformance findings) are blind
	// to them.
	unresolved []token.Pos
	// paramDecodes: word decodes a function performs on its own payload-typed
	// parameter without a local kind constraint; attributed to a kind at call
	// sites that do carry one (one level deep).
	paramDecodes map[types.Object][]paramDecode
	records      []*funcRecord
}

// paramDecode is one decode of word wi of a payload-typed parameter.
type paramDecode struct {
	paramIdx int
	wi       int
	codec    string
}

// funcRecord keeps one top-level function's classification for the second
// (call-site attribution) pass.
type funcRecord struct {
	fd      *ast.FuncDecl
	name    string
	origins *payloadOrigins
	regions []kindRegion
}

const (
	transportSend  = "send"
	transportBcast = "broadcast"
	transportAny   = "any"
)

var wordFieldIndex = map[string]int{"W0": 0, "W1": 1, "W2": 2, "W3": 3}

var decodeCodec = map[string]string{"WordInt": "int", "WordFloat": "float", "WordBool": "bool"}
var encodeCodec = map[string]string{"IntWord": "int", "FloatWord": "float", "BoolWord": "bool"}

// congestCall returns the function name when call is a package-qualified call
// into congest (congest.IntWord, congest.WordFloat, ...).
func congestCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok && pathBase(pn.Imported().Path()) == "congest" {
		return sel.Sel.Name
	}
	return ""
}

// ctxMethodCall returns the method name when call invokes a method on
// congest.Ctx.
func ctxMethodCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && isCongestNamed(s.Recv(), "Ctx") {
		return sel.Sel.Name
	}
	return ""
}

// payloadOrigins classifies, within one function, which identifiers hold
// values derived from the engine-owned inbox (ctx.In()) and which from
// caller-owned broadcast deliveries (*congest.BroadcastMsg parameters and
// call results such as Delivery.At).
type payloadOrigins struct {
	inSlices   map[types.Object]bool // ctx.In() results
	inMsgs     map[types.Object]bool // in[i] / &in[i] message values
	inPayloads map[types.Object]bool // m.Payload / &m.Payload
	bMsgs      map[types.Object]bool // *BroadcastMsg params, call results, aliases
	bPayloads  map[types.Object]bool
}

func newOrigins() *payloadOrigins {
	return &payloadOrigins{
		inSlices:   make(map[types.Object]bool),
		inMsgs:     make(map[types.Object]bool),
		inPayloads: make(map[types.Object]bool),
		bMsgs:      make(map[types.Object]bool),
		bPayloads:  make(map[types.Object]bool),
	}
}

// computeOrigins runs the per-function origin classification for the
// function node fn (a FuncDecl or FuncLit, including everything nested in
// it that is not itself re-classified by a caller).
func computeOrigins(info *types.Info, fn ast.Node) *payloadOrigins {
	o := newOrigins()
	// Broadcast/Convergecast handler parameters are the broadcast roots.
	switch n := fn.(type) {
	case *ast.FuncDecl:
		markBcastParams(info, n.Type.Params, o)
	case *ast.FuncLit:
		markBcastParams(info, n.Type.Params, o)
	}
	body := funcBody(fn)
	if body == nil {
		return o
	}
	// Broadcast handlers are typically function literals passed to
	// congest.Broadcast/Convergecast inside the phase function; their
	// *BroadcastMsg parameters are broadcast roots too.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			markBcastParams(info, lit.Type.Params, o)
		}
		return true
	})
	// Nested function literals inherit the enclosing classification (they
	// capture the same objects), so one walk over the whole body suffices.
	// Iterate to a fixed point: aliases can be introduced before their
	// source in nested closures.
	for changed := true; changed; {
		changed = false
		mark := func(m map[types.Object]bool, obj types.Object) {
			if obj != nil && !m[obj] {
				m[obj] = true
				changed = true
			}
		}
		classifyRHS := func(lhs, rhs ast.Expr) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return
			}
			e := ast.Unparen(rhs)
			if call, ok := e.(*ast.CallExpr); ok {
				if ctxMethodCall(info, call) == "In" {
					mark(o.inSlices, obj)
				}
				// Delivery.At, and helpers wrapping it, hand out broadcast
				// messages.
				if tv, ok := info.Types[call]; ok && isBcastMsgPtr(tv.Type) {
					mark(o.bMsgs, obj)
				}
				return
			}
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = ast.Unparen(u.X)
			}
			switch x := e.(type) {
			case *ast.IndexExpr:
				if root := rootIdentObj(info, x.X); root != nil && o.inSlices[root] {
					mark(o.inMsgs, obj)
				}
			case *ast.SelectorExpr:
				base := rootIdentObj(info, x.X)
				switch x.Sel.Name {
				case "Payload":
					// base is the message variable (m.Payload) or, for the
					// in[i].Payload form, the inbox slice itself.
					if o.inMsgs[base] || o.inSlices[base] {
						mark(o.inPayloads, obj)
					}
					if o.bMsgs[base] {
						mark(o.bPayloads, obj)
					}
				}
			case *ast.StarExpr:
				if root := rootIdentObj(info, x.X); root != nil {
					if o.inPayloads[root] {
						mark(o.inPayloads, obj)
					}
					if o.bPayloads[root] {
						mark(o.bPayloads, obj)
					}
				}
			case *ast.Ident:
				if root := rootIdentObj(info, x); root != nil {
					if o.inPayloads[root] {
						mark(o.inPayloads, obj)
					}
					if o.bPayloads[root] {
						mark(o.bPayloads, obj)
					}
					if o.inMsgs[root] {
						mark(o.inMsgs, obj)
					}
				}
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						classifyRHS(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.RangeStmt:
				// for _, m := range in { ... }
				if n.Value != nil {
					if root := rootIdentObj(info, n.X); root != nil && o.inSlices[root] {
						if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								mark(o.inMsgs, obj)
							}
						}
					}
				}
			}
			return true
		})
	}
	return o
}

// rootIdentObj unwraps parens, slicing, and indexing down to the base
// identifier's object: `buf[2:k]` and `buf[i]` both root at buf. Returns nil
// for anything not rooted at a plain identifier.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// isBcastMsgPtr reports whether t is *congest.BroadcastMsg.
func isBcastMsgPtr(t types.Type) bool {
	_, ptr := t.(*types.Pointer)
	return ptr && isCongestNamed(t, "BroadcastMsg")
}

func markBcastParams(info *types.Info, params *ast.FieldList, o *payloadOrigins) {
	if params == nil {
		return
	}
	for _, f := range params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil && isCongestNamed(obj.Type(), "BroadcastMsg") {
				o.bMsgs[obj] = true
			}
		}
	}
}

// payloadSel decomposes an expression of the form <payload>.<field> where
// <payload> has type congest.Payload. It returns the root object identifying
// the payload instance (for constraint matching) and its origin transport.
func payloadSel(info *types.Info, o *payloadOrigins, sel *ast.SelectorExpr) (root types.Object, transport string, ok bool) {
	x := ast.Unparen(sel.X)
	if star, isStar := x.(*ast.StarExpr); isStar {
		x = ast.Unparen(star.X)
	}
	tv, has := info.Types[x]
	if !has || !isCongestNamed(tv.Type, "Payload") {
		return nil, "", false
	}
	switch b := x.(type) {
	case *ast.Ident:
		root = rootIdentObj(info, b)
	case *ast.SelectorExpr:
		// m.Payload.<field>
		if b.Sel.Name == "Payload" {
			root = rootIdentObj(info, b.X)
		}
	}
	if root == nil {
		return nil, "", false
	}
	switch {
	case o.inPayloads[root] || o.inMsgs[root] || o.inSlices[root]:
		transport = transportSend
	case o.bPayloads[root] || o.bMsgs[root]:
		transport = transportBcast
	default:
		transport = transportAny
	}
	return root, transport, true
}

// kindRegion is one span of source where a payload root object is known to
// hold a specific kind (a switch case arm, an == guard body, or everything
// after a != guard whose body terminates the iteration).
type kindRegion struct {
	root     types.Object
	kind     *kindConst
	from, to token.Pos
}

// resolveKindExpr maps an expression to a declared kind constant, first by
// object identity, then by constant value.
func (pp *pkgProtocol) resolveKindExpr(e ast.Expr) *kindConst {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if kc := pp.byObj[pp.pkg.Info.Uses[id]]; kc != nil {
			return kc
		}
	}
	if tv, ok := pp.pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, ok := constant.Uint64Val(tv.Value); ok {
			return pp.byVal[v]
		}
	}
	return nil
}

// kindExprValue reports the constant value of a kind expression, when it has
// one (named or literal).
func (pp *pkgProtocol) kindExprValue(e ast.Expr) (uint64, bool) {
	if tv, ok := pp.pkg.Info.Types[ast.Unparen(e)]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		return constant.Uint64Val(tv.Value)
	}
	return 0, false
}

// terminatesIteration reports whether a block's last statement leaves the
// surrounding iteration or function (the shape of a `!=` kind guard).
func terminatesIteration(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	}
	return false
}

// extractProtocol runs the whole extraction over one package.
func extractProtocol(pkg *Package) *pkgProtocol {
	pp := &pkgProtocol{
		pkg:          pkg,
		byObj:        make(map[types.Object]*kindConst),
		byVal:        make(map[uint64]*kindConst),
		paramDecodes: make(map[types.Object][]paramDecode),
	}

	// Kind constants, from the package scope.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !isCongestNamed(c.Type(), "PayloadKind") {
			continue
		}
		v, ok := constant.Uint64Val(c.Val())
		if !ok {
			continue
		}
		kc := &kindConst{obj: c, name: name, val: v, pos: c.Pos()}
		pp.kinds = append(pp.kinds, kc)
		pp.byObj[c] = kc
		if _, dup := pp.byVal[v]; !dup {
			pp.byVal[v] = kc
		}
	}
	sortKinds(pp.kinds)

	// Per-file: walk top-level declarations so every site knows its
	// enclosing function, its origin classification, and its kind regions.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pp.extractFunc(fd, funcDisplayName(fd))
		}
	}
	// Second pass: attribute decodes a helper performs on its payload
	// parameter to the kind constrained at each call site.
	for _, rec := range pp.records {
		pp.attributeCalleeDecodes(rec)
	}
	return pp
}

// kindAtIn resolves the kind constraint on root at pos within regions:
// exactly one containing kind wins; none or conflicting kinds resolve
// nothing.
func kindAtIn(regions []kindRegion, root types.Object, pos token.Pos) *kindConst {
	var found *kindConst
	for _, r := range regions {
		if r.root == root && r.from <= pos && pos < r.to {
			if found != nil && found != r.kind {
				return nil
			}
			found = r.kind
		}
	}
	return found
}

// attributeCalleeDecodes walks one function's call sites and projects the
// recorded parameter decodes of package-local callees onto the kind
// constraint active at each call.
func (pp *pkgProtocol) attributeCalleeDecodes(rec *funcRecord) {
	info := pp.pkg.Info
	ast.Inspect(rec.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee types.Object
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee = info.Uses[fun]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				callee = sel.Obj()
			}
		}
		for _, pd := range pp.paramDecodes[callee] {
			if pd.paramIdx >= len(call.Args) {
				continue
			}
			arg := ast.Unparen(call.Args[pd.paramIdx])
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = ast.Unparen(u.X)
			}
			root := rootIdentObj(info, arg)
			if root == nil {
				continue
			}
			if k := kindAtIn(rec.regions, root, call.Pos()); k != nil {
				pp.decodes = append(pp.decodes, &decodeSite{pos: call.Pos(), kind: k, wi: pd.wi, codec: pd.codec})
			}
		}
		return true
	})
}

// funcDisplayName renders a FuncDecl name with its receiver, e.g.
// "(*Explorer).forward".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// extractFunc pulls sends, matches, decodes, and switches out of one
// top-level function (closures included: they share the origin
// classification, which tracks captured objects correctly).
func (pp *pkgProtocol) extractFunc(fd *ast.FuncDecl, name string) {
	info := pp.pkg.Info
	o := computeOrigins(info, fd)
	regions := pp.collectRegions(fd, o, name)
	pp.records = append(pp.records, &funcRecord{fd: fd, name: name, origins: o, regions: regions})

	kindAt := func(root types.Object, pos token.Pos) *kindConst {
		return kindAtIn(regions, root, pos)
	}

	// Payload-typed parameters of this function, for recording decodes that
	// only a caller's kind constraint can attribute.
	var params []types.Object
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, pname := range f.Names {
				if obj := info.Defs[pname]; obj != nil {
					params = append(params, obj)
				}
			}
		}
	}
	fnObj := info.Defs[fd.Name]
	recordParamDecode := func(root types.Object, wi int, codec string) {
		if fnObj == nil || root == nil || !isCongestNamed(root.Type(), "Payload") {
			return
		}
		for i, p := range params {
			if p == root {
				pp.paramDecodes[fnObj] = append(pp.paramDecodes[fnObj], paramDecode{paramIdx: i, wi: wi, codec: codec})
				return
			}
		}
	}

	rawWi := make(map[*ast.SelectorExpr]bool)  // Wi selectors seen anywhere
	usedWi := make(map[*ast.SelectorExpr]bool) // consumed by codec or literal
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Writes to payload words are encodes, not decodes.
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if _, isWord := wordFieldIndex[sel.Sel.Name]; isWord {
						usedWi[sel] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if _, isWord := wordFieldIndex[n.Sel.Name]; isWord {
				if _, _, ok := payloadSel(info, o, n); ok {
					rawWi[n] = true
				}
			}
		case *ast.CallExpr:
			if codec, ok := decodeCodec[congestCall(info, n)]; ok && len(n.Args) == 1 {
				if sel, isSel := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); isSel {
					if wi, isWord := wordFieldIndex[sel.Sel.Name]; isWord {
						if root, _, ok := payloadSel(info, o, sel); ok {
							usedWi[sel] = true
							if k := kindAt(root, n.Pos()); k != nil {
								pp.decodes = append(pp.decodes, &decodeSite{pos: n.Pos(), kind: k, wi: wi, codec: codec})
							} else {
								recordParamDecode(root, wi, codec)
							}
						}
					}
				}
			}
			pp.extractSend(n, o, name, kindAt)
		case *ast.CompositeLit:
			pp.extractBroadcastLit(n, name)
			// Passthrough encodes (W2: p.W2 in a relay literal) consume the
			// selector and count as a decode that inherits whatever codec
			// the original sender used.
			if tv, ok := info.Types[n]; ok && isCongestNamed(tv.Type, "Payload") {
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					sel, ok := ast.Unparen(kv.Value).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					wi, isWord := wordFieldIndex[sel.Sel.Name]
					if !isWord {
						continue
					}
					if root, _, ok := payloadSel(info, o, sel); ok {
						usedWi[sel] = true
						if k := kindAt(root, sel.Pos()); k != nil {
							pp.decodes = append(pp.decodes, &decodeSite{pos: sel.Pos(), kind: k, wi: wi, codec: "passthrough"})
						} else {
							recordParamDecode(root, wi, "passthrough")
						}
					}
				}
			}
		}
		return true
	})

	// Leftover Wi selectors are raw reads: decodes without a codec.
	for sel := range rawWi {
		if usedWi[sel] {
			continue
		}
		wi := wordFieldIndex[sel.Sel.Name]
		root, _, _ := payloadSel(info, o, sel)
		if k := kindAt(root, sel.Pos()); k != nil {
			pp.decodes = append(pp.decodes, &decodeSite{pos: sel.Pos(), kind: k, wi: wi, codec: "raw"})
		} else {
			recordParamDecode(root, wi, "raw")
		}
	}
}

// collectRegions finds kind switches and guards in fd, recording match sites
// and the constraint regions they induce.
func (pp *pkgProtocol) collectRegions(fd *ast.FuncDecl, o *payloadOrigins, name string) []kindRegion {
	info := pp.pkg.Info
	var regions []kindRegion
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			sel, ok := ast.Unparen(n.Tag).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Kind" {
				return true
			}
			root, transport, ok := payloadSel(info, o, sel)
			if !ok {
				return true
			}
			sw := &kindSwitch{pos: n.Pos(), transport: transport, arms: make(map[*kindConst]bool), enclosing: name}
			for _, stmt := range n.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					sw.hasDefault = true
					continue
				}
				for _, e := range cc.List {
					kc := pp.resolveKindExpr(e)
					if kc == nil {
						continue
					}
					sw.arms[kc] = true
					pp.matches = append(pp.matches, &matchSite{pos: e.Pos(), kind: kc, transport: transport, form: "switch", enclosing: name})
					if len(cc.List) == 1 {
						regions = append(regions, kindRegion{root: root, kind: kc, from: cc.Pos(), to: cc.End()})
					}
				}
			}
			pp.switches = append(pp.switches, sw)
		case *ast.IfStmt:
			be, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			sel, kindExpr := kindComparison(be)
			if sel == nil {
				return true
			}
			root, transport, ok := payloadSel(info, o, sel)
			if !ok {
				return true
			}
			kc := pp.resolveKindExpr(kindExpr)
			if kc == nil {
				return true
			}
			pp.matches = append(pp.matches, &matchSite{pos: be.Pos(), kind: kc, transport: transport, form: "guard", enclosing: name})
			if be.Op == token.EQL {
				regions = append(regions, kindRegion{root: root, kind: kc, from: n.Body.Pos(), to: n.Body.End()})
			} else if terminatesIteration(n.Body) {
				regions = append(regions, kindRegion{root: root, kind: kc, from: n.End(), to: fd.Body.End()})
			}
		}
		return true
	})
	return regions
}

// kindComparison matches `<payload>.Kind <op> <expr>` in either operand
// order, returning the .Kind selector and the compared expression.
func kindComparison(be *ast.BinaryExpr) (*ast.SelectorExpr, ast.Expr) {
	if sel, ok := ast.Unparen(be.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "Kind" {
		return sel, be.Y
	}
	if sel, ok := ast.Unparen(be.Y).(*ast.SelectorExpr); ok && sel.Sel.Name == "Kind" {
		return sel, be.X
	}
	return nil, nil
}

// extractSend records a Ctx.Send call as a send site.
func (pp *pkgProtocol) extractSend(call *ast.CallExpr, o *payloadOrigins, name string, kindAt func(types.Object, token.Pos) *kindConst) {
	if ctxMethodCall(pp.pkg.Info, call) != "Send" || len(call.Args) < 3 {
		return
	}
	s := &sendSite{pos: call.Pos(), transport: transportSend, wordsExpr: call.Args[2], hasBody: len(call.Args) > 3, enclosing: name}
	pp.resolvePayloadExpr(s, call.Args[1], o, kindAt)
	pp.addSend(s)
}

// extractBroadcastLit records a congest.BroadcastMsg composite literal as a
// broadcast send site.
func (pp *pkgProtocol) extractBroadcastLit(lit *ast.CompositeLit, name string) {
	tv, ok := pp.pkg.Info.Types[lit]
	if !ok || !isCongestNamed(tv.Type, "BroadcastMsg") {
		return
	}
	s := &sendSite{pos: lit.Pos(), transport: transportBcast, enclosing: name}
	var payloadExpr ast.Expr
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Payload":
			payloadExpr = kv.Value
		case "Words":
			s.wordsExpr = kv.Value
		case "Body":
			s.hasBody = true
		}
	}
	if payloadExpr == nil {
		s.kindZero = true // analytic-only broadcast (no payload)
		pp.addSend(s)
		return
	}
	pp.resolvePayloadExpr(s, payloadExpr, nil, nil)
	pp.addSend(s)
}

// resolvePayloadExpr fills in the payload half of a send site: a direct
// congest.Payload literal yields the kind and field map; a relayed received
// value resolves through the kind constraint at the site; anything else is
// unresolved.
func (pp *pkgProtocol) resolvePayloadExpr(s *sendSite, e ast.Expr, o *payloadOrigins, kindAt func(types.Object, token.Pos) *kindConst) {
	info := pp.pkg.Info
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok {
		if tv, ok := info.Types[lit]; ok && isCongestNamed(tv.Type, "Payload") {
			s.lit = lit
			s.fields = make(map[int]ast.Expr)
			var kindExpr ast.Expr
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyID, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				key := keyID.Name
				switch {
				case key == "Kind":
					kindExpr = kv.Value
				default:
					if wi, isWord := wordFieldIndex[key]; isWord {
						s.fields[wi] = kv.Value
					}
				}
			}
			if kindExpr == nil {
				s.kindZero = true
				return
			}
			if v, ok := pp.kindExprValue(kindExpr); ok && v == 0 {
				s.kindZero = true
				return
			}
			s.kind = pp.resolveKindExpr(kindExpr)
			return
		}
	}
	// Relay of a received payload: *p or p, where p is inbox-derived.
	if o != nil && kindAt != nil {
		x := e
		if star, ok := x.(*ast.StarExpr); ok {
			x = ast.Unparen(star.X)
		}
		if root := rootIdentObj(info, x); root != nil && (o.inPayloads[root] || o.inMsgs[root]) {
			s.relay = true
			s.kind = kindAt(root, s.pos)
			return
		}
	}
}

// addSend files a send site, tracking unresolved ones.
func (pp *pkgProtocol) addSend(s *sendSite) {
	pp.sends = append(pp.sends, s)
	if s.kind == nil && !s.kindZero {
		pp.unresolved = append(pp.unresolved, s.pos)
	}
}

func sortKinds(ks []*kindConst) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && (ks[j-1].val > ks[j].val || (ks[j-1].val == ks[j].val && ks[j-1].name > ks[j].name)); j-- {
			ks[j-1], ks[j] = ks[j], ks[j-1]
		}
	}
}
