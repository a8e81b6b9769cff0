package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Poolsafe machine-checks the arena/pool checkout discipline that the
// morsel runtime's zero-allocation contract rests on: a value checked
// out of internal/runtime's Arena (GetBuf/GetResults) or any
// sync.Pool must
//
//   - never be used again, on any path, after it was released
//     (PutBuf/Put/Release) — the backing memory may already
//     serve a concurrent batch, so a late use is silent cross-batch
//     corruption, the use-after-free bug class pooling reintroduces; and
//   - reach a release or an ownership transfer on every path to a normal
//     return — otherwise the pool leaks its buffer and the steady-state
//     zero-allocation contract quietly erodes.
//
// Ownership transfers are recognized structurally: the checked-out value
// itself (a bare identifier, not a field or slice view of it) returned,
// stored into a field/index/global, sent on a channel, captured by a
// function literal, or passed as an argument to another call — helpers
// that *release* a parameter (per the cross-package call summaries) kill
// the obligation as a release instead, so later uses stay poisoned.
// Paths that end in panic/os.Exit are excused (the process or batch is
// already lost; GC reclaims the buffer), and deferred releases run at
// the function's Exit block, where obligations are settled last.
type Poolsafe struct {
	pkgs []*Package
}

// NewPoolsafe returns the analyzer.
func NewPoolsafe() *Poolsafe { return &Poolsafe{} }

func (*Poolsafe) Name() string { return "poolsafe" }
func (*Poolsafe) Doc() string {
	return "arena/sync.Pool checkouts must not be used after release and must be released or ownership-transferred on every path"
}

// Package defers to Finish: release effects of helper functions are
// cross-package properties (the summaries need every package loaded).
func (a *Poolsafe) Package(pkg *Package, report Reporter) {
	a.pkgs = append(a.pkgs, pkg)
}

func (a *Poolsafe) Finish(report Reporter) {
	sums := BuildSummaries(a.pkgs)
	for _, pkg := range a.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
					a.checkFunc(pkg, sums, body, report)
				})
			}
		}
	}
}

// forEachFuncBody invokes fn for a function body and for every function
// literal nested inside it, so each body is analyzed with its own CFG.
func forEachFuncBody(body *ast.BlockStmt, fn func(*ast.BlockStmt)) {
	fn(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			forEachFuncBody(lit.Body, fn)
			return false
		}
		return true
	})
}

// checkoutSite is one tracked checkout: the assignment binding a pooled
// value to a local variable.
type checkoutSite struct {
	obj  types.Object
	pos  token.Pos
	what string // "Arena.GetBuf", "sync.Pool.Get", ...
}

func (a *Poolsafe) checkFunc(pkg *Package, sums *Summaries, body *ast.BlockStmt, report Reporter) {
	g := NewCFG(body)
	reach := g.Reachable()

	// Collect checkout sites: local vars bound directly to a checkout
	// call, in any reachable block.
	var sites []checkoutSite
	varIdx := make(map[types.Object]int)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			forEachCheckoutBinding(pkg.Info, n, func(obj types.Object, call *ast.CallExpr, what string) {
				sites = append(sites, checkoutSite{obj: obj, pos: call.Pos(), what: what})
				if _, ok := varIdx[obj]; !ok {
					varIdx[obj] = len(varIdx)
				}
			})
		}
	}
	if len(sites) == 0 {
		return
	}
	tracked := func(obj types.Object) (int, bool) {
		if obj == nil {
			return 0, false
		}
		i, ok := varIdx[obj]
		return i, ok
	}

	// Problem 1 — outstanding obligations (forward, may): fact i means
	// "checkout site i has reached this point unreleased and
	// untransferred on some path".
	obFlow := &Flow{
		Dir: Forward, NumFacts: len(sites), MeetUnion: true,
		Transfer: func(b *BasicBlock, in BitSet) BitSet {
			out := in.Copy()
			for _, n := range b.Nodes {
				a.applyObligations(pkg.Info, sums, n, sites, out)
			}
			if b.PanicExit {
				for i := range sites {
					out.Clear(i)
				}
			}
			return out
		},
	}
	obIn, _ := Solve(g, obFlow)

	// Deferred calls run at Exit: settle what they release or transfer,
	// then report what is still outstanding.
	atExit := obIn[g.Exit.Index].Copy()
	for _, call := range g.ExitCalls {
		a.applyObligations(pkg.Info, sums, call, sites, atExit)
	}
	for i, s := range sites {
		if atExit.Has(i) {
			report(s.pos, "%s checked out from %s here may not be released on every path; release it, or transfer ownership (bare value to a field, return, channel, or call)",
				s.obj.Name(), s.what)
		}
	}

	// Problem 2 — released state (forward, may): fact j means "variable j
	// was released on some path". A use while the fact holds is a
	// use-after-release.
	relFlow := &Flow{
		Dir: Forward, NumFacts: len(varIdx), MeetUnion: true,
		Transfer: func(b *BasicBlock, in BitSet) BitSet {
			out := in.Copy()
			for _, n := range b.Nodes {
				a.applyReleased(pkg.Info, sums, n, tracked, out)
			}
			return out
		},
	}
	relIn, _ := Solve(g, relFlow)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		w := relIn[b.Index].Copy()
		for _, n := range b.Nodes {
			for _, id := range identUses(pkg.Info, n) {
				if i, ok := tracked(pkg.Info.Uses[id]); ok && w.Has(i) {
					report(id.Pos(), "%s is used after being released to its pool; the buffer may already serve another batch", id.Name)
				}
			}
			a.applyReleased(pkg.Info, sums, n, tracked, w)
		}
	}
	// Deferred calls at Exit see the function's final state.
	w := relIn[g.Exit.Index].Copy()
	for _, call := range g.ExitCalls {
		for _, id := range identUses(pkg.Info, call) {
			if i, ok := tracked(pkg.Info.Uses[id]); ok && w.Has(i) {
				report(id.Pos(), "deferred call uses %s after it was released to its pool", id.Name)
			}
		}
		a.applyReleased(pkg.Info, sums, call, tracked, w)
	}
}

// applyObligations updates the obligation set across one node: a new
// checkout re-arms its site, a release or transfer of the bound variable
// discharges every site bound to it.
func (a *Poolsafe) applyObligations(info *types.Info, sums *Summaries, n ast.Node, sites []checkoutSite, facts BitSet) {
	clearVar := func(obj types.Object) {
		for i, s := range sites {
			if s.obj == obj {
				facts.Clear(i)
			}
		}
	}
	// Releases first (a release is not a transfer; it must not double as
	// one), then transfers, then fresh checkouts arm their site.
	for _, obj := range releasedObjects(info, sums, n) {
		clearVar(obj)
	}
	// A nil comparison discharges the obligation: sync.Pool.Get returns
	// nil when empty, and the analysis is not path-sensitive about
	// nilness, so `if v := pool.Get(); v != nil { ... }` would otherwise
	// flag the empty-pool branch. Arena checkouts never return nil, so
	// real leaks don't hide behind this (documented in DESIGN.md §13).
	inspectOpaque(n, func(m ast.Node) {
		be, ok := m.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if id, ok := ast.Unparen(side).(*ast.Ident); ok && id.Name == "nil" {
				if other, ok := ast.Unparen(be.X).(*ast.Ident); ok && other != id {
					clearVar(info.Uses[other])
				}
				if other, ok := ast.Unparen(be.Y).(*ast.Ident); ok && other != id {
					clearVar(info.Uses[other])
				}
			}
		}
	})
	for _, obj := range transferredObjects(info, sums, n) {
		clearVar(obj)
	}
	forEachAssignedVar(info, n, func(obj types.Object) {
		clearVar(obj) // reassignment: the old value's obligation is gone
	})
	forEachCheckoutBinding(info, n, func(obj types.Object, call *ast.CallExpr, what string) {
		for i, s := range sites {
			if s.pos == call.Pos() {
				facts.Set(i)
			} else if s.obj == obj {
				facts.Clear(i)
			}
		}
	})
}

// applyReleased updates the released set across one node.
func (a *Poolsafe) applyReleased(info *types.Info, sums *Summaries, n ast.Node, tracked func(types.Object) (int, bool), facts BitSet) {
	for _, obj := range releasedObjects(info, sums, n) {
		if i, ok := tracked(obj); ok {
			facts.Set(i)
		}
	}
	forEachAssignedVar(info, n, func(obj types.Object) {
		if i, ok := tracked(obj); ok {
			facts.Clear(i)
		}
	})
}

// forEachCheckoutBinding finds `v := arena.GetBuf(...)`-shaped bindings
// in a node: an assignment or declaration whose right-hand side is a
// checkout call (possibly behind a type assertion, as in
// `pool.Get().(*job)`) bound to a plain local identifier.
func forEachCheckoutBinding(info *types.Info, n ast.Node, fn func(obj types.Object, call *ast.CallExpr, what string)) {
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, what, ok := checkoutCall(info, rhs)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() {
			fn(obj, call, what)
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				bind(s.Lhs[i], s.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					bind(vs.Names[i], vs.Values[i])
				}
			}
		}
	}
}

// checkoutCall recognizes pooled-checkout calls: sync.Pool.Get, and the
// GetBuf/GetResults methods of a type named Arena (the
// internal/runtime result arena; matching by name keeps fixtures
// self-contained). A wrapping type assertion or parens are looked
// through.
func checkoutCall(info *types.Info, e ast.Expr) (*ast.CallExpr, string, bool) {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	fn := CalleeFunc(info, call)
	if fn == nil {
		return nil, "", false
	}
	recv := recvTypeName(fn)
	switch fn.Name() {
	case "Get":
		if recv == "Pool" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			return call, "sync.Pool.Get", true
		}
	case "GetBuf", "GetResults":
		if recv == "Arena" {
			return call, "Arena." + fn.Name(), true
		}
	}
	return nil, "", false
}

// releasedObjects returns the variables a node releases: direct release
// calls (Put/PutBuf/Release) plus calls to module functions
// whose summary releases the corresponding argument. DeferStmt nodes
// release nothing at registration — their call runs at Exit.
func releasedObjects(info *types.Info, sums *Summaries, n ast.Node) []types.Object {
	var out []types.Object
	inspectOpaque(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		if objs, ok := releaseTargets(info, call); ok {
			out = append(out, objs...)
			return
		}
		if eff := sums.Effects(CalleeFunc(info, call)); eff != nil {
			if eff.ReleasesRecv {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					out = append(out, rootObject(info, sel.X))
				}
			}
			for i, rel := range eff.ReleasesParam {
				if rel && i < len(call.Args) {
					out = append(out, rootObject(info, call.Args[i]))
				}
			}
		}
	})
	return out
}

// transferredObjects returns the variables whose ownership a node hands
// away: the bare value returned, stored into a field/index/global,
// sent on a channel, used as a call argument or composite-literal
// element, or captured by a function literal.
func transferredObjects(info *types.Info, sums *Summaries, n ast.Node) []types.Object {
	var out []types.Object
	add := func(e ast.Expr) {
		for _, id := range bareIdents(e) {
			if obj := info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	switch s := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			add(r)
		}
	case *ast.SendStmt:
		add(s.Value)
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			// Storing into anything but a plain local (a field, an index,
			// a dereference) moves the value where this function's paths
			// no longer govern it.
			if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain && i < len(s.Rhs) {
				add(s.Rhs[i])
			} else if i < len(s.Rhs) {
				// b := v (or b := v.(*Buf)) aliases the value; the alias
				// owns it now — bareIdents sees through the assertion but
				// not through field or index reads.
				add(s.Rhs[i])
			}
		}
	}
	// Call arguments transfer unless the callee is a release (release
	// already handled) — and function literals capture.
	inspectOpaque(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		if _, isRelease := releaseTargets(info, call); isRelease {
			return
		}
		for _, arg := range call.Args {
			add(arg)
		}
	})
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						out = append(out, obj)
					}
				}
				return true
			})
			return false
		}
		return true
	})
	return out
}

// forEachAssignedVar reports plain local identifiers a node writes to.
func forEachAssignedVar(info *types.Info, n ast.Node, fn func(types.Object)) {
	s, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, lhs := range s.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				fn(obj)
			}
		}
	}
}

// bareIdents returns the identifiers that appear in ownership-capable
// positions of an expression: the value itself (or its address), not a
// field, element, slice view, or comparison of it. `res`, `&res`, and a
// composite element `{res}` are bare; `res.IDs`, `res[i]`, and
// `res == nil` are mere reads.
func bareIdents(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name != "_" {
				out = append(out, x)
			}
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				walk(x.X)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
					continue
				}
				walk(el)
			}
		case *ast.TypeAssertExpr:
			walk(x.X)
		}
	}
	walk(e)
	return out
}

// identUses returns every identifier read by a node: all mentions except
// pure-write positions (a plain ident as an assignment's left-hand
// side). Function literals are opaque (their body runs later); a
// DeferStmt contributes its call's receiver and arguments, which are
// evaluated at registration time.
func identUses(info *types.Info, n ast.Node) []*ast.Ident {
	writes := map[*ast.Ident]bool{}
	if s, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}
	var out []*ast.Ident
	inspectOpaque(n, func(m ast.Node) {
		if id, ok := m.(*ast.Ident); ok && !writes[id] {
			if _, isVar := info.Uses[id].(*types.Var); isVar {
				out = append(out, id)
			}
		}
	})
	return out
}

// inspectOpaque walks a node treating *ast.FuncLit bodies as opaque,
// and *ast.DeferStmt / *ast.GoStmt as contributing only their
// registration-time expressions (receiver chain and arguments — the
// deferred call runs at Exit, the spawned call on another goroutine).
func inspectOpaque(n ast.Node, fn func(ast.Node)) {
	var walk func(n ast.Node)
	walkCallSetup := func(call *ast.CallExpr) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			walk(sel.X)
		}
		for _, a := range call.Args {
			walk(a)
		}
	}
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch d := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				walkCallSetup(d.Call)
				return false
			case *ast.GoStmt:
				walkCallSetup(d.Call)
				return false
			}
			if m != nil {
				fn(m)
			}
			return true
		})
	}
	walk(n)
}
