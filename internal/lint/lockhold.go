package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockhold checks the two mutex disciplines the storage and scheduling
// layers depend on:
//
//   - pairing: every sync.Mutex/RWMutex Lock (and RLock) is matched by
//     the corresponding Unlock on every path to a normal return — early
//     returns included, deferred unlocks honored (they run at Exit, so
//     they also cover panic paths);
//   - no blocking while exclusive: a write lock must not be held across
//     an operation that can park the goroutine — a channel send or
//     receive, a select without a default, ranging over a channel,
//     time.Sleep, WaitGroup waits, network I/O, or a call to a module
//     function whose summary says it may do any of those (pool Dispatch
//     blocks on its WaitGroup, for example). A parked writer stalls
//     every reader and writer behind it.
//
// The blocking rule is deliberately scoped to exclusive locks: the
// engine's serve path holds an RLock across Dispatch by design (readers
// don't exclude each other), and sync.Cond.Wait is exempt because the
// condvar contract *requires* holding the mutex across it.
type Lockhold struct {
	pkgs []*Package
}

// NewLockhold returns the analyzer.
func NewLockhold() *Lockhold { return &Lockhold{} }

func (*Lockhold) Name() string { return "lockhold" }
func (*Lockhold) Doc() string {
	return "every Lock must be matched by Unlock on all paths, and no write lock may be held across a blocking operation"
}

// Package defers to Finish: the blocking effect of callees is a
// cross-package property.
func (a *Lockhold) Package(pkg *Package, report Reporter) {
	a.pkgs = append(a.pkgs, pkg)
}

func (a *Lockhold) Finish(report Reporter) {
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

// lockOp classifies one mutex call site.
type lockOp struct {
	key    string // receiver expression, e.g. "c.mu" — the lock's identity
	method string // Lock, Unlock, RLock, RUnlock
	pos    token.Pos
}

// lockSite is one acquisition whose matching release is tracked.
type lockSite struct {
	key    string
	method string // Lock or RLock
	pos    token.Pos
}

func (a *Lockhold) checkFunc(pkg *Package, sums *Summaries, body *ast.BlockStmt, report Reporter) {
	g := NewCFG(body)
	reach := g.Reachable()
	exempt := nonBlockingComms(body)

	// Collect acquisition sites and the set of exclusively-held keys.
	var sites []lockSite
	exclKeys := make(map[string]int) // key -> held-fact index
	var exclNames []string           // held-fact index -> key
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			forEachLockOp(pkg.Info, n, func(op lockOp) {
				switch op.method {
				case "Lock", "RLock":
					sites = append(sites, lockSite{key: op.key, method: op.method, pos: op.pos})
				}
				if op.method == "Lock" {
					if _, ok := exclKeys[op.key]; !ok {
						exclKeys[op.key] = len(exclKeys)
						exclNames = append(exclNames, op.key)
					}
				}
			})
		}
	}
	if len(sites) == 0 {
		return
	}

	// Problem 1 — pairing (forward, may): fact i means "acquisition i may
	// still be unmatched here". An Unlock/RUnlock on the same lock
	// expression discharges every site of the matching kind, so a lock
	// re-acquired each loop iteration stays clean.
	pairFlow := &Flow{
		Dir: Forward, NumFacts: len(sites), MeetUnion: true,
		Transfer: func(b *BasicBlock, in BitSet) BitSet {
			out := in.Copy()
			for _, n := range b.Nodes {
				applyLockPairing(pkg.Info, n, sites, out)
			}
			if b.PanicExit {
				// The goroutine is going down; deferred unlocks (modeled at
				// Exit) are the only ones that matter past this point.
				for i := range sites {
					out.Clear(i)
				}
			}
			return out
		},
	}
	pairIn, _ := Solve(g, pairFlow)
	atExit := pairIn[g.Exit.Index].Copy()
	for _, call := range g.ExitCalls {
		applyLockPairing(pkg.Info, call, sites, atExit)
	}
	for i, s := range sites {
		if atExit.Has(i) {
			report(s.pos, "%s.%s() here is not matched by %s on every path to return",
				s.key, s.method, unlockName(s.method))
		}
	}

	// Problem 2 — blocking while exclusively held (forward, may): fact k
	// means "write lock k may be held here". Deferred unlocks do NOT clear
	// the fact mid-function — the lock really is held until return.
	if len(exclKeys) == 0 {
		return
	}
	heldFlow := &Flow{
		Dir: Forward, NumFacts: len(exclKeys), MeetUnion: true,
		Transfer: func(b *BasicBlock, in BitSet) BitSet {
			out := in.Copy()
			for _, n := range b.Nodes {
				applyHeld(pkg.Info, n, exclKeys, out)
			}
			return out
		},
	}
	heldIn, _ := Solve(g, heldFlow)
	heldName := func(w BitSet) (string, bool) {
		for i, key := range exclNames {
			if w.Has(i) {
				return key, true
			}
		}
		return "", false
	}
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		w := heldIn[b.Index].Copy()
		// Range-over-channel blocks at the loop header, which carries the
		// RangeStmt out-of-band (see BasicBlock.Range).
		if b.Range != nil {
			if key, held := heldName(w); held {
				if why, ok := blockingPrimitive(pkg.Info, b.Range); ok {
					report(b.Range.Pos(), "%s is held across %s; a parked writer stalls every contender — release the lock first", key, why)
				}
			}
		}
		for _, n := range b.Nodes {
			if key, held := heldName(w); held {
				if why, ok := nodeBlocks(pkg.Info, sums, n, exempt); ok {
					report(n.Pos(), "%s is held across %s; a parked writer stalls every contender — release the lock first", key, why)
				}
			}
			applyHeld(pkg.Info, n, exclKeys, w)
		}
	}
	// Deferred calls run with whatever is still held at Exit.
	w := heldIn[g.Exit.Index].Copy()
	for _, call := range g.ExitCalls {
		if key, held := heldName(w); held {
			if why, ok := nodeBlocks(pkg.Info, sums, call, exempt); ok {
				report(call.Pos(), "deferred call may block on %s while %s is still held", why, key)
			}
		}
		applyHeld(pkg.Info, call, exclKeys, w)
	}
}

// applyLockPairing updates the unmatched-acquisition set across a node.
func applyLockPairing(info *types.Info, n ast.Node, sites []lockSite, facts BitSet) {
	forEachLockOp(info, n, func(op lockOp) {
		switch op.method {
		case "Lock", "RLock":
			for i, s := range sites {
				if s.pos == op.pos {
					facts.Set(i)
				}
			}
		case "Unlock", "RUnlock":
			want := "Lock"
			if op.method == "RUnlock" {
				want = "RLock"
			}
			for i, s := range sites {
				if s.key == op.key && s.method == want {
					facts.Clear(i)
				}
			}
		}
	})
}

// applyHeld updates the exclusively-held set across a node.
func applyHeld(info *types.Info, n ast.Node, keys map[string]int, facts BitSet) {
	forEachLockOp(info, n, func(op lockOp) {
		i, ok := keys[op.key]
		if !ok {
			return
		}
		switch op.method {
		case "Lock":
			facts.Set(i)
		case "Unlock":
			facts.Clear(i)
		}
	})
}

// nodeBlocks reports whether executing a node may park the goroutine:
// a primitive blocking operation, or a call to a module function whose
// summary blocks. sync.Cond.Wait is exempt here (the condvar contract
// requires holding the mutex), as are sends/receives inside a select
// that has a default clause (they only fire when already ready).
func nodeBlocks(info *types.Info, sums *Summaries, n ast.Node, exempt map[ast.Node]bool) (string, bool) {
	var why string
	inspectOpaque(n, func(m ast.Node) {
		if why != "" || exempt[m] {
			return
		}
		if w, ok := blockingPrimitive(info, m); ok && w != "sync.Cond.Wait" {
			why = w
			return
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if eff := sums.Effects(CalleeFunc(info, call)); eff != nil && eff.Blocks {
				why = "call to " + CalleeFunc(info, call).Name() + " (" + eff.BlocksWhy + ")"
			}
		}
	})
	return why, why != ""
}

// forEachLockOp finds sync.Mutex / sync.RWMutex method calls in a node
// (function literals opaque, deferred calls registration-only) and
// reports each with the lock's identity: the receiver expression
// rendered to source ("c.mu"), which distinguishes locks by path rather
// than by root object alone.
func forEachLockOp(info *types.Info, n ast.Node, fn func(lockOp)) {
	inspectOpaque(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		op, ok := lockCall(info, call)
		if ok {
			fn(op)
		}
	})
}

// lockCall classifies a call as a mutex operation.
func lockCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockOp{}, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockOp{}, false
	}
	return lockOp{key: types.ExprString(sel.X), method: fn.Name(), pos: call.Pos()}, true
}

// unlockName maps an acquisition method to its release.
func unlockName(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}
