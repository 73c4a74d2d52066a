package stq

// Regression tests for the EnablePrivacy lifecycle: re-enabling while a
// budget accountant is live used to silently discard the old accountant
// (re-arming an exhausted budget), and disabling left the stale
// per-query ε behind in the serving state.

import (
	"math"
	"strings"
	"testing"
)

// TestEnablePrivacyReenableIsError: once a budget is live, a second
// EnablePrivacy must fail loudly instead of resetting the spent budget.
func TestEnablePrivacyReenableIsError(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.6)
	if err := sys.EnablePrivacy(2.0, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	// Spend some budget so the error message has something to report.
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err != nil {
		t.Fatal(err)
	}
	remBefore := sys.PrivacyBudgetRemaining()
	err := sys.EnablePrivacy(4.0, 1.0, 2)
	if err == nil {
		t.Fatal("re-enabling privacy with a live accountant succeeded; want error")
	}
	if !strings.Contains(err.Error(), "already enabled") {
		t.Errorf("re-enable error = %q, want mention of the live budget", err)
	}
	if got := sys.PrivacyBudgetRemaining(); got != remBefore {
		t.Errorf("failed re-enable changed remaining budget: %v -> %v", remBefore, got)
	}
	// The documented reset path — disable first — must still work and
	// hand out a fresh, full budget.
	if err := sys.EnablePrivacy(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnablePrivacy(4.0, 1.0, 2); err != nil {
		t.Fatalf("enable after explicit disable: %v", err)
	}
	if got := sys.PrivacyBudgetRemaining(); got != 4.0 {
		t.Errorf("fresh budget remaining = %v, want 4", got)
	}
}

// TestDisablePrivacyClearsState: after exhausting a budget and
// disabling, queries must return exact counts again with no residue of
// the old per-query ε or accountant.
func TestDisablePrivacyClearsState(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.6)
	exact, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnablePrivacy(0.5, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err != nil {
		t.Fatal(err) // spends the whole budget
	}
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err == nil {
		t.Fatal("query beyond exhausted budget accepted")
	}
	if err := sys.EnablePrivacy(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := sys.PrivacyBudgetRemaining(); !math.IsInf(got, 1) {
		t.Errorf("budget remaining after disable = %v, want +Inf", got)
	}
	for i := 0; i < 3; i++ {
		resp, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot})
		if err != nil {
			t.Fatalf("query after disable: %v", err)
		}
		if resp.Count != exact.Count {
			t.Fatalf("count after disable = %v, want exact %v (stale privacy state?)", resp.Count, exact.Count)
		}
	}
}

// TestEnablePrivacyRefusesNonFiniteEpsilon: NaN fails every comparison,
// so EnablePrivacy(10, NaN) used to arm a budget whose every release
// was NaN, EnablePrivacy(NaN, 1) one that never ran out, and
// EnablePrivacy(+Inf, +Inf) one that released the exact count while
// privacy read as on; a −Inf total silently disabled. Every non-finite
// argument is refused before anything changes: the budget stays
// unlimited and queries keep answering the exact count.
func TestEnablePrivacyRefusesNonFiniteEpsilon(t *testing.T) {
	sys, wl := newTestSystem(t)
	q := Query{Rect: centered(sys, 0.6), T1: wl.Horizon / 2, Kind: Snapshot}
	exact, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, args := range [][2]float64{{bad, 1}, {10, bad}, {bad, bad}} {
			if err := sys.EnablePrivacy(args[0], args[1], 1); err == nil {
				t.Errorf("EnablePrivacy(%v, %v) accepted", args[0], args[1])
			}
			if got := sys.PrivacyBudgetRemaining(); !math.IsInf(got, 1) {
				t.Errorf("EnablePrivacy(%v, %v): budget remaining %v, want +Inf", args[0], args[1], got)
			}
			resp, err := sys.Query(q)
			if err != nil || resp.Count != exact.Count {
				t.Errorf("EnablePrivacy(%v, %v): query answered %v, %v; want the exact %v", args[0], args[1], resp, err, exact.Count)
			}
		}
	}
}
