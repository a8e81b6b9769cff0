package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes per-function effect summaries that let the
// intra-procedural dataflow analyzers see one level across calls — the
// two effects the lifetime invariants depend on:
//
//   - blocks: calling the function may park the goroutine (channel
//     send/receive, select without default, ranging over a channel,
//     time.Sleep, WaitGroup/Cond waits, net I/O) — directly or through a
//     call to another module function that does. lockhold uses this to
//     flag mutexes held across pool dispatch and friends without
//     special-casing every wrapper.
//   - releases: the function hands one of its parameters (or its
//     receiver) back to a pool or arena (sync.Pool.Put, Arena.PutBuf, a
//     Release method). poolsafe uses this so a helper that
//     releases on the caller's behalf both discharges the obligation and
//     poisons later uses.
//
// Summaries are propagated through module-internal calls to a bounded
// fixpoint; calls into the standard library use the primitive table
// only, and calls through interfaces or function values are assumed
// effect-free (a documented imprecision — see DESIGN.md §13).

// OwnsDirective marks a function that takes ownership of arena-backed
// values it receives or returns: poolsafe treats passing a tracked value
// to it as a transfer, and arenaescape allows arena views to escape
// through its results. The directive may carry a trailing note
// ("//fclint:owns — why"), which is encouraged.
const OwnsDirective = "//fclint:owns"

// hasOwnsDirective reports whether a doc comment carries the owns
// directive, with or without a trailing explanation.
func hasOwnsDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		t := c.Text
		if t == OwnsDirective || len(t) > len(OwnsDirective) && t[:len(OwnsDirective)+1] == OwnsDirective+" " {
			return true
		}
	}
	return false
}

// Effects is one function's summary.
type Effects struct {
	// Blocks reports that calling the function may park the goroutine.
	Blocks bool
	// BlocksWhy names the first blocking primitive or callee found, for
	// diagnostics ("channel receive", "call to Pool.Dispatch").
	BlocksWhy string
	// ReleasesRecv and ReleasesParam report which inputs the function
	// returns to a pool/arena (param indices follow the declared order).
	ReleasesRecv  bool
	ReleasesParam []bool
	// Owns is set by the fclint:owns directive.
	Owns bool
}

// Summaries maps every function declared in the analyzed packages to its
// effects.
type Summaries struct {
	fns map[*types.Func]*Effects
	// bodies lets the propagation passes rescan call sites.
	bodies map[*types.Func]*funcBody
}

type funcBody struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Effects returns fn's summary, or nil for functions outside the
// analyzed set (stdlib, interface methods).
func (s *Summaries) Effects(fn *types.Func) *Effects {
	if s == nil || fn == nil {
		return nil
	}
	return s.fns[fn]
}

// BuildSummaries scans every function declared in pkgs for primitive
// effects, then propagates the blocking and releasing effects through
// module-internal calls to a bounded fixpoint.
func BuildSummaries(pkgs []*Package) *Summaries {
	s := &Summaries{
		fns:    make(map[*types.Func]*Effects),
		bodies: make(map[*types.Func]*funcBody),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				eff := &Effects{Owns: hasOwnsDirective(fd.Doc)}
				if sig, ok := fn.Type().(*types.Signature); ok {
					eff.ReleasesParam = make([]bool, sig.Params().Len())
				}
				s.fns[fn] = eff
				s.bodies[fn] = &funcBody{pkg: pkg, decl: fd}
				s.primitiveEffects(fn, eff)
			}
		}
	}
	// Propagate call effects to a bounded fixpoint. The bound is a
	// backstop against summary cycles through recursion; real call chains
	// in the module are far shallower.
	for iter := 0; iter < 20; iter++ {
		if !s.propagate() {
			break
		}
	}
	return s
}

// primitiveEffects records fn's direct effects: blocking primitives and
// releases of its own parameters/receiver. FuncLit bodies are skipped
// (they run on their own schedule) unless immediately invoked; DeferStmt
// bodies count (deferred calls run on this goroutine before return).
func (s *Summaries) primitiveEffects(fn *types.Func, eff *Effects) {
	fb := s.bodies[fn]
	pkg, fd := fb.pkg, fb.decl
	params := paramObjects(pkg.Info, fd)
	var recv types.Object
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recv = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	}

	exempt := nonBlockingComms(fd.Body)
	inspectNoFuncLit(fd.Body, func(n ast.Node) {
		if why, ok := blockingPrimitive(pkg.Info, n); ok && !eff.Blocks && !exempt[n] {
			eff.Blocks, eff.BlocksWhy = true, why
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		released, ok := releaseTargets(pkg.Info, call)
		if !ok {
			return
		}
		for _, obj := range released {
			if obj == nil {
				continue
			}
			if obj == recv {
				eff.ReleasesRecv = true
			}
			for i, p := range params {
				if obj == p {
					eff.ReleasesParam[i] = true
				}
			}
		}
	})
}

// propagate folds callee summaries into callers once; reports change.
func (s *Summaries) propagate() bool {
	changed := false
	for fn, fb := range s.bodies {
		eff := s.fns[fn]
		pkg, fd := fb.pkg, fb.decl
		params := paramObjects(pkg.Info, fd)
		var recv types.Object
		if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
			recv = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
		}
		inspectNoFuncLit(fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := CalleeFunc(pkg.Info, call)
			ce := s.fns[callee]
			if ce == nil {
				return
			}
			if ce.Blocks && !eff.Blocks {
				eff.Blocks = true
				eff.BlocksWhy = "call to " + callee.Name() + " (" + ce.BlocksWhy + ")"
				changed = true
			}
			// A callee that releases its receiver or a parameter releases
			// whatever object our caller passed in that slot.
			mark := func(obj types.Object) {
				if obj == nil {
					return
				}
				if obj == recv && !eff.ReleasesRecv {
					eff.ReleasesRecv = true
					changed = true
				}
				for i, p := range params {
					if obj == p && !eff.ReleasesParam[i] {
						eff.ReleasesParam[i] = true
						changed = true
					}
				}
			}
			if ce.ReleasesRecv {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					mark(rootObject(pkg.Info, sel.X))
				}
			}
			for i, rel := range ce.ReleasesParam {
				if rel && i < len(call.Args) {
					mark(rootObject(pkg.Info, call.Args[i]))
				}
			}
		})
	}
	return changed
}

// paramObjects resolves a declaration's parameter idents to their
// objects, in declared order (unnamed params occupy their slot as nil).
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// inspectNoFuncLit walks n, skipping function-literal bodies: a literal
// runs on its own schedule (goroutine, callback), so its effects are not
// the enclosing function's — unless it is invoked on the spot.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		// A go statement's call runs on another goroutine: its effects
		// (blocking in particular) are not the spawner's. Argument
		// expressions are evaluated here, so walk those.
		if g, ok := n.(*ast.GoStmt); ok {
			for _, a := range g.Call.Args {
				ast.Inspect(a, func(m ast.Node) bool {
					if _, ok := m.(*ast.FuncLit); ok {
						return false
					}
					if m != nil {
						fn(m)
					}
					return true
				})
			}
			return false
		}
		// An immediately-invoked literal does run here: keep walking
		// through the CallExpr into the literal's body.
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				fn(n)
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if _, ok := m.(*ast.FuncLit); ok {
						return false
					}
					if m != nil {
						fn(m)
					}
					return true
				})
				for _, a := range call.Args {
					ast.Inspect(a, func(m ast.Node) bool {
						if _, ok := m.(*ast.FuncLit); ok {
							return false
						}
						if m != nil {
							fn(m)
						}
						return true
					})
				}
				return false
			}
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// blockingPrimitive reports whether a node is a primitive blocking
// operation and names it. sync.Cond.Wait is deliberately not primitive
// for lockhold's purposes — the condvar contract requires holding the
// mutex across it — but it still marks a function as blocking for
// callers holding *other* locks; that distinction lives in lockhold, so
// here Wait counts.
func blockingPrimitive(info *types.Info, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // default clause: non-blocking poll
			}
		}
		return "select", true
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", true
			}
		}
	case *ast.CallExpr:
		fn := CalleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil {
			return "", false
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep", true
			}
		case "sync":
			if fn.Name() == "Wait" {
				recv := recvTypeName(fn)
				if recv == "WaitGroup" {
					return "sync.WaitGroup.Wait", true
				}
				if recv == "Cond" {
					return "sync.Cond.Wait", true
				}
			}
		case "net":
			switch fn.Name() {
			case "Read", "Write", "Accept", "Dial", "DialTimeout":
				return "net." + recvTypeName(fn) + "." + fn.Name(), true
			}
		}
	}
	return "", false
}

// nonBlockingComms collects every node inside the comm clauses of select
// statements that carry a default clause: those sends and receives only
// fire when they are already ready, so they are not blocking primitives
// (the select polls and falls through to default otherwise).
func nonBlockingComms(body ast.Node) map[ast.Node]bool {
	exempt := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				if m != nil {
					exempt[m] = true
				}
				return true
			})
		}
		return true
	})
	return exempt
}

// recvTypeName names a method's receiver type ("" for plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if tn := namedTypeName(sig.Recv().Type()); tn != nil {
		return tn.Name()
	}
	return ""
}

// CalleeFunc resolves a call expression to the *types.Func it invokes:
// plain functions, package-qualified functions, and methods. Calls
// through function values, interface methods without a concrete callee,
// and built-ins resolve to nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified: pkg.F
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// releaseTargets reports the objects a call returns to a pool or arena:
// the receiver of x.Release(), the argument of Pool.Put / Arena.PutBuf.
// ok is false when the call is not a release at all.
func releaseTargets(info *types.Info, call *ast.CallExpr) (objs []types.Object, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	fn := CalleeFunc(info, call)
	if fn == nil {
		return nil, false
	}
	switch fn.Name() {
	case "Release":
		// x.Release(): the receiver goes back.
		return []types.Object{rootObject(info, sel.X)}, true
	case "Put", "PutBuf":
		// pool.Put(x) and friends: the argument goes back. Require a
		// pool-ish receiver type so unrelated Put methods (a map wrapper,
		// a cache) don't register as releases.
		recv := recvTypeName(fn)
		if fn.Name() == "Put" && !(recv == "Pool" && fn.Pkg() != nil && fn.Pkg().Path() == "sync") {
			return nil, false
		}
		if fn.Name() != "Put" && recv != "Arena" {
			return nil, false
		}
		if len(call.Args) != 1 {
			return nil, false
		}
		return []types.Object{rootObject(info, call.Args[0])}, true
	}
	return nil, false
}

// rootObject resolves an expression to the variable at its root: b,
// (&b), b.field and b[i] all resolve to b's object. Returns nil for
// expressions not rooted in a single identifier.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedTypeName unwraps pointers and returns the *types.TypeName of a
// named type, or nil.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}
