package lint

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestIgnoreDirective drives the suppression mechanics end to end over
// the ignore fixture: a well-formed directive filters its finding, and
// the malformed variants (missing reason, unknown analyzer, stale)
// surface as hygiene diagnostics. Expectations live here instead of in
// want comments because a want comment cannot share a line with the
// directive under test.
func TestIgnoreDirective(t *testing.T) {
	l, pkg := loadFixture(t, "ignore")
	diags := Run(l.Fset(), []*Package{pkg}, []Analyzer{NewArenaescape()})

	wantSubstrings := []string{
		"returned to the caller",              // missingReason's finding survives: no reason, no suppression
		"needs an analyzer and a reason",      // the reasonless directive itself
		"names unknown analyzer nosuchcheck",  // the misnamed directive
		"stale fclint:ignore: no arenaescape", // the directive with nothing left to suppress
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("expected %d diagnostics, got %d: %v", len(wantSubstrings), len(diags), diags)
	}
	for _, sub := range wantSubstrings {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, sub) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("expected exactly one diagnostic containing %q, got %d in %v", sub, n, diags)
		}
	}
	// The well-formed suppression must have filtered its finding: only
	// one arenaescape diagnostic (missingReason's) survives.
	escapes := 0
	for _, d := range diags {
		if d.Analyzer == "arenaescape" {
			escapes++
		}
	}
	if escapes != 1 {
		t.Errorf("expected exactly 1 surviving arenaescape finding, got %d: %v", escapes, diags)
	}
}

// TestIgnoreStaleNeedsRun proves the staleness guard: a suppression for
// an analyzer that did not run this invocation cannot be judged stale,
// so only the unconditionally malformed directives are reported.
func TestIgnoreStaleNeedsRun(t *testing.T) {
	l, pkg := loadFixture(t, "ignore")
	diags := Run(l.Fset(), []*Package{pkg}, nil)
	if len(diags) != 2 {
		t.Fatalf("expected 2 diagnostics (missing reason, unknown analyzer), got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "ignore" {
			t.Errorf("expected only hygiene diagnostics, got %s", d)
		}
		if strings.Contains(d.Message, "stale") {
			t.Errorf("stale check must not fire when the analyzer did not run: %s", d)
		}
	}
}

// TestSuppressionLedger enumerates every //fclint:ignore in the tree.
// A suppression is a debt record; this ledger keeps the debts visible.
// Adding one means consciously extending the want list below — with a
// reason in the directive, or Run would have flagged it anyway.
func TestSuppressionLedger(t *testing.T) {
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
	var got []string
	for _, s := range Suppressions(l.Fset(), pkgs) {
		rel, err := filepath.Rel(root, s.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, filepath.ToSlash(rel)+" "+s.Analyzer)
		if s.Reason == "" {
			t.Errorf("%s: suppression without a reason", s.Pos)
		}
		if !knownAnalyzer(s.Analyzer) {
			t.Errorf("%s: suppression names unknown analyzer %q", s.Pos, s.Analyzer)
		}
	}
	sort.Strings(got)
	want := []string{
		"fastcolumns.go lockhold",
		"internal/coop/coop.go ctxflow",
	}
	if len(got) != len(want) {
		t.Fatalf("suppression ledger drifted:\n got %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ledger entry %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
