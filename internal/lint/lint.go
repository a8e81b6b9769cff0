// Package lint is the repo's own static-analysis suite: a stdlib-only
// (go/ast, go/parser, go/token, go/types) driver plus nine analyzers that
// turn this codebase's concurrency, lifetime, and cost-model conventions
// into machine-checked invariants. The serve path's resilience guarantees
// (errors-not-panics, context threading, atomic counters) and the cost
// model's float-precision contract (the APS crossover sits exactly at
// ratio 1.0) are only as strong as the code that follows them; fclint
// makes "follows them" a build failure instead of a review habit.
//
// Six analyzers are per-node AST walks; the three lifetime analyzers
// (poolsafe, lockhold, arenaescape) run on an intra-procedural CFG +
// worklist-dataflow engine (cfg.go, dataflow.go) with one-level
// cross-package call summaries for blocking and releasing effects
// (summary.go) — see DESIGN.md §13.
//
// The analyzers:
//
//   - nopanic: library packages return errors; panic() is reserved for
//     package main and internal/faultinject.
//   - ctxflow: context.Background()/TODO() only in package main and the
//     documented *Context wrapper shims; a function holding a context
//     never substitutes a fresh one (or nil) when calling down.
//   - atomicfield: a struct field touched through sync/atomic anywhere
//     must be touched atomically everywhere, across all packages.
//   - floatcmp: no ==/!= on floating-point values in the cost-model
//     package; the epsilon helpers make tolerance explicit.
//   - errdrop: a call statement may not silently discard an error
//     result; discards must be written as explicit blank assignments.
//   - gospawn: no raw go statements in library packages; goroutines come
//     from the internal/runtime worker pool (morsel dispatch) or its Go
//     escape hatch, so the process has exactly one spawn site.
//   - poolsafe: a value checked out of the result arena or a sync.Pool
//     is never used after Release/Put on any path, and is released (or
//     ownership-transferred) on every path to a normal return.
//   - lockhold: every Lock/RLock is matched by its Unlock on all paths,
//     and no write lock is held across a blocking operation (channel
//     ops, select, pool Dispatch, time.Sleep, network I/O).
//   - arenaescape: arena-backed slices (Buf.IDs, Results.RowIDs and
//     their query-layer mirrors) never escape to
//     struct fields, package variables, or un-annotated returns.
//
// Findings can be silenced inline with a justified suppression —
// //fclint:ignore <analyzer> <reason> — on the flagged line or the line
// above; an empty reason, an unknown analyzer, or a stale suppression is
// itself a finding (see ignore.go).
//
// Test files are exempt from every analyzer and are not loaded at all.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do, so editors can jump
// to it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reporter records one finding at a position.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one invariant checker. Package is called once per loaded
// package; Finish runs after every package has been seen, which is where
// cross-package analyzers (atomicfield) emit their findings. Analyzers
// carry per-run state, so construct a fresh set for each run.
type Analyzer interface {
	Name() string
	Doc() string
	Package(pkg *Package, report Reporter)
	Finish(report Reporter)
}

// Analyzers returns a fresh instance of every repo analyzer with its
// default configuration.
func Analyzers() []Analyzer {
	return []Analyzer{
		NewNopanic(),
		NewCtxflow(),
		NewAtomicfield(),
		NewFloatcmp(),
		NewErrdrop(),
		NewGospawn(),
		NewPoolsafe(),
		NewLockhold(),
		NewArenaescape(),
	}
}

// Run applies the analyzers to the packages and returns the findings in
// position order, after applying //fclint:ignore suppressions (malformed
// or stale suppressions surface as findings of the "ignore" analyzer).
func Run(fset *token.FileSet, pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name()] = true
		report := func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:      fset.Position(pos),
				Analyzer: a.Name(),
				Message:  fmt.Sprintf(format, args...),
			})
		}
		for _, pkg := range pkgs {
			a.Package(pkg, report)
		}
		a.Finish(report)
	}
	diags = applySuppressions(diags, Suppressions(fset, pkgs), ran)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
