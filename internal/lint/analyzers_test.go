package lint

import (
	"path/filepath"
	"testing"
)

func TestNopanicFixture(t *testing.T) { runFixture(t, NewNopanic(), "nopanic") }

func TestCtxflowFixture(t *testing.T) { runFixture(t, NewCtxflow(), "ctxflow") }

func TestAtomicfieldFixture(t *testing.T) { runFixture(t, NewAtomicfield(), "atomicfield") }

func TestFloatcmpFixture(t *testing.T) {
	// The fixture package's import path is "floatcmp", so target that
	// instead of the default internal/model.
	runFixture(t, &Floatcmp{Target: []string{"floatcmp"}}, "floatcmp")
}

func TestErrdropFixture(t *testing.T) { runFixture(t, NewErrdrop(), "errdrop") }

func TestGospawnFixture(t *testing.T) { runFixture(t, NewGospawn(), "gospawn") }

func TestPoolsafeFixture(t *testing.T) { runFixture(t, NewPoolsafe(), "poolsafe") }

func TestLockholdFixture(t *testing.T) { runFixture(t, NewLockhold(), "lockhold") }

func TestArenaescapeFixture(t *testing.T) { runFixture(t, NewArenaescape(), "arenaescape") }

// TestGospawnAllowlist proves the runtime-package allowance: the same
// spawning fixture is quiet when its path is allowed (as
// internal/runtime, the pool itself, is by default).
func TestGospawnAllowlist(t *testing.T) {
	l, pkg := loadFixture(t, "gospawn")
	a := &Gospawn{Allowed: []string{"gospawn"}}
	diags := Run(l.Fset(), []*Package{pkg}, []Analyzer{a})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics for allowed package, got %d: %v", len(diags), diags)
	}
}

// TestFloatcmpOffTarget proves the analyzer is scoped: the same fixture
// produces nothing when its package is not targeted.
func TestFloatcmpOffTarget(t *testing.T) {
	l, pkg := loadFixture(t, "floatcmp")
	diags := Run(l.Fset(), []*Package{pkg}, []Analyzer{NewFloatcmp()})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics off-target, got %d: %v", len(diags), diags)
	}
}

// TestNopanicAllowlist proves the fault-injection allowance: the same
// panicking fixture is quiet when its path is allowed.
func TestNopanicAllowlist(t *testing.T) {
	l, pkg := loadFixture(t, "nopanic")
	a := &Nopanic{Allowed: []string{"nopanic"}}
	diags := Run(l.Fset(), []*Package{pkg}, []Analyzer{a})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics for allowed package, got %d: %v", len(diags), diags)
	}
}

// TestModuleClean is the live contract: the repo's own tree must stay
// free of findings. It is the same check `make lint` runs in CI, kept
// here too so plain `go test ./...` catches regressions.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("module loader found only %d packages; the walker is likely broken", len(pkgs))
	}
	for _, d := range Run(l.Fset(), pkgs, Analyzers()) {
		t.Errorf("finding in tree: %s", d)
	}
}
