package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Arenaescape tracks views into pooled arena buffers — the IDs / RowIDs
// slices of internal/runtime's Buf and Results wrappers — and flags the three ways such a view can outlive the batch that owns
// the backing memory:
//
//   - stored into a struct field reachable from outside the function
//     (a parameter, receiver, or global — locals merely become tainted),
//   - stored into a package-level variable,
//   - returned to the caller.
//
// Once the wrapper goes back to the arena, any surviving view silently
// aliases the next batch's data; this is the read-side twin of
// poolsafe's use-after-release. Functions that legitimately hand views
// to their caller (the query API returns pooled results the caller
// releases) carry the //fclint:owns directive, which permits return
// escapes and stores through parameters. internal/runtime itself is
// exempt — it implements the arena and necessarily stores views into
// its own wrappers.
//
// Taint is a forward may-analysis over local variables: a local bound to
// a slice or composite mentioning a view (or another tainted local) is
// tainted; scalar derivations (len, an indexed element) are not.
type Arenaescape struct {
	pkgs []*Package
}

// NewArenaescape returns the analyzer.
func NewArenaescape() *Arenaescape { return &Arenaescape{} }

func (*Arenaescape) Name() string { return "arenaescape" }
func (*Arenaescape) Doc() string {
	return "arena-backed slices must not escape to struct fields, package variables, or returns that outlive the batch"
}

func (a *Arenaescape) Package(pkg *Package, report Reporter) {
	a.pkgs = append(a.pkgs, pkg)
}

func (a *Arenaescape) Finish(report Reporter) {
	for _, pkg := range a.pkgs {
		if strings.HasSuffix(pkg.Path, "internal/runtime") {
			continue // the arena implementation owns its own views
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				owns := hasOwnsDirective(fd.Doc)
				forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
					a.checkFunc(pkg, body, owns, report)
				})
			}
		}
	}
}

func (a *Arenaescape) checkFunc(pkg *Package, body *ast.BlockStmt, owns bool, report Reporter) {
	info := pkg.Info
	g := NewCFG(body)
	reach := g.Reachable()

	// Candidate taint carriers: every local variable defined in the body.
	varIdx := make(map[types.Object]int)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false // literals get their own checkFunc pass
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() {
				if _, seen := varIdx[v]; !seen {
					varIdx[v] = len(varIdx)
				}
			}
		}
		return true
	})

	st := &escapeState{info: info, varIdx: varIdx, owns: owns}
	if len(varIdx) > 0 {
		flow := &Flow{
			Dir: Forward, NumFacts: len(varIdx), MeetUnion: true,
			Transfer: func(b *BasicBlock, in BitSet) BitSet {
				out := in.Copy()
				for _, n := range b.Nodes {
					st.apply(n, out, nil)
				}
				return out
			},
		}
		in, _ := Solve(g, flow)
		for _, b := range g.Blocks {
			if !reach[b] {
				continue
			}
			w := in[b.Index].Copy()
			for _, n := range b.Nodes {
				st.apply(n, w, report)
			}
		}
	} else {
		// No locals at all: still check returns/stores node by node.
		w := NewBitSet(0)
		for _, b := range g.Blocks {
			if !reach[b] {
				continue
			}
			for _, n := range b.Nodes {
				st.apply(n, w, report)
			}
		}
	}
}

// escapeState evaluates taint and escapes for single nodes.
type escapeState struct {
	info   *types.Info
	varIdx map[types.Object]int
	owns   bool
}

// apply updates taint facts across node n; when report is non-nil it
// also emits escape diagnostics (the solver pass runs with report nil,
// the reporting pass replays transfer with diagnostics on).
func (st *escapeState) apply(n ast.Node, w BitSet, report Reporter) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0] // multi-value call: conservatively shared
			}
			if rhs == nil {
				continue
			}
			st.store(lhs, rhs, w, report)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						st.store(name, vs.Values[i], w, report)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		if report == nil || st.owns {
			return
		}
		for _, r := range s.Results {
			if st.tainted(r, w) {
				report(r.Pos(), "arena-backed slice is returned to the caller and outlives its batch; copy it, or mark the function //fclint:owns to transfer ownership")
			}
		}
	}
}

// store handles one lvalue ← rvalue pair: tainting locals, reporting
// stores that make a view outlive the batch.
func (st *escapeState) store(lhs, rhs ast.Expr, w BitSet, report Reporter) {
	hot := st.tainted(rhs, w)
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := st.info.Defs[id]
		if obj == nil {
			obj = st.info.Uses[id]
		}
		if i, local := st.varIdx[obj]; local {
			if hot {
				w.Set(i)
			} else {
				w.Clear(i)
			}
			return
		}
		// Not function-local: a package-level variable.
		if hot && report != nil && isPackageVar(obj) {
			report(lhs.Pos(), "arena-backed slice is stored in package variable %s and outlives its batch; copy it before publishing", id.Name)
		}
		return
	}
	if !hot {
		return
	}
	// A field, index, or dereference store: find the root. A local root
	// merely becomes tainted (the view hasn't left the function yet); a
	// parameter, receiver, global, or unresolvable root is caller-visible
	// memory — unless this function owns the transfer.
	root := rootObject(st.info, lhs)
	if i, local := st.varIdx[root]; local {
		w.Set(i)
		return
	}
	if report == nil || st.owns {
		return
	}
	if root != nil && isPackageVar(root) {
		report(lhs.Pos(), "arena-backed slice is stored under package variable %s and outlives its batch; copy it before publishing", root.Name())
		return
	}
	report(lhs.Pos(), "arena-backed slice is stored in caller-visible memory (%s) and outlives its batch; copy it, or mark the function //fclint:owns", types.ExprString(lhs))
}

// tainted reports whether evaluating e may yield (or contain) a live
// arena view: e mentions a view selector or a tainted local, and e's
// type can actually hold a slice (scalar derivations like len() or an
// indexed element are clean).
func (st *escapeState) tainted(e ast.Expr, w BitSet) bool {
	if !st.canHoldView(e) {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if st.isArenaView(x) {
				found = true
				return false
			}
			// A scalar field read (agg.Count, r.Kind) launders the taint
			// away: don't descend into the base.
			if !st.canHoldView(x) {
				return false
			}
		case *ast.IndexExpr:
			// An indexed element is a scalar copy, not a view — unless the
			// element type itself can hold a view ([][]uint32).
			if !st.canHoldView(x) {
				return false
			}
		case *ast.CallExpr:
			// A call producing a scalar (len, int64(...)) launders taint;
			// one producing a slice/struct conservatively may pass the
			// view through (FilterAt filters in place).
			if !st.canHoldView(x) {
				return false
			}
		case *ast.Ident:
			if i, ok := st.varIdx[st.info.Uses[x]]; ok && w.Has(i) {
				// A tainted local mentioned in slice-capable position.
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// canHoldView reports whether a value of e's type can carry a slice
// view: slices, structs, pointers, interfaces, maps, arrays — but not
// numbers, booleans, or strings (len(v), v[i] launder the taint away).
func (st *escapeState) canHoldView(e ast.Expr) bool {
	tv, ok := st.info.Types[e]
	if !ok || tv.Type == nil {
		return true // unknown: stay conservative
	}
	switch tv.Type.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Slice, *types.Struct, *types.Pointer, *types.Interface, *types.Map, *types.Array, *types.Chan:
		return true
	}
	return false
}

// isArenaView matches the selector shapes that expose pooled backing
// memory: .IDs on Buf, .RowIDs on Results (and the
// query-layer Result mirror, which wraps the same arena slice).
func (st *escapeState) isArenaView(sel *ast.SelectorExpr) bool {
	var wrapper string
	switch sel.Sel.Name {
	case "IDs":
		wrapper = "Buf"
	case "RowIDs":
		wrapper = "Results"
	default:
		return false
	}
	tv, ok := st.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	tn := namedTypeName(t)
	if tn == nil {
		return false
	}
	if sel.Sel.Name == "RowIDs" {
		// exec.Result and fastcolumns.BatchResult re-expose Results.RowIDs
		// under the same field name.
		return tn.Name() == "Results" || tn.Name() == "Result" || tn.Name() == "BatchResult"
	}
	return tn.Name() == wrapper
}

// isPackageVar reports whether obj is a package-scoped variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() != nil && v.Parent() == v.Pkg().Scope()
}
