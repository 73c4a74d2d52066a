package stq

// Regression tests for the EnablePrivacy lifecycle: re-enabling while a
// budget accountant is live used to silently discard the old accountant
// (re-arming an exhausted budget), and disabling left the stale
// per-query ε behind in the serving state.

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// TestEnablePrivacyReenableIsError: once a budget is live, a second
// EnablePrivacy must fail loudly instead of resetting the spent budget.
func TestEnablePrivacyReenableIsError(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.6)
	if err := sys.EnablePrivacy(2.0, 0.5); err != nil {
		t.Fatal(err)
	}
	// Spend some budget so the error message has something to report.
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err != nil {
		t.Fatal(err)
	}
	remBefore := sys.PrivacyBudgetRemaining()
	err := sys.EnablePrivacy(4.0, 1.0)
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
	if err := sys.EnablePrivacy(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnablePrivacy(4.0, 1.0); err != nil {
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
	if err := sys.EnablePrivacy(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err != nil {
		t.Fatal(err) // spends the whole budget
	}
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err == nil {
		t.Fatal("query beyond exhausted budget accepted")
	}
	if err := sys.EnablePrivacy(0, 0); err != nil {
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
			if err := sys.EnablePrivacy(args[0], args[1]); err == nil {
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

// TestPrivateReleasesAreIntegers: the release mechanism adds two-sided
// geometric noise to an integer count, so every private count — from
// System.Query and from a served /v1/query, of every kind, on the full
// and on a sampled sensing graph — is an integer. Continuous Laplace
// noise released fractional object counts.
func TestPrivateReleasesAreIntegers(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	if err := sys.EnablePrivacy(1000, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, placed := range []bool{false, true} {
		if placed {
			if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
				t.Fatal(err)
			}
		}
		for i, kind := range []Kind{Snapshot, Static, Transient} {
			for j := 0; j < 3; j++ {
				r := centered(sys, 0.3+0.15*float64(j))
				q := Query{Rect: r, T1: wl.Horizon * (0.2 + 0.1*float64(i)), T2: wl.Horizon * 0.8, Kind: kind}
				resp, err := sys.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Count != math.Trunc(resp.Count) {
					t.Errorf("placed=%v %v rect %d: System.Query released %v", placed, kind, j, resp.Count)
				}
				status, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
					Rect: [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y},
					T1:   q.T1, T2: q.T2, Kind: kind.String(),
				})
				if status != http.StatusOK {
					t.Fatalf("placed=%v %v rect %d: HTTP %d: %s", placed, kind, j, status, body)
				}
				var res QueryResult
				if err := json.Unmarshal(body, &res); err != nil {
					t.Fatal(err)
				}
				if res.Count != math.Trunc(res.Count) {
					t.Errorf("placed=%v %v rect %d: /v1/query released %v", placed, kind, j, res.Count)
				}
			}
		}
	}
}

// TestPrivateReleasesUnpredictable: the daemons used to pass -seed + 3
// (45 by default) to EnablePrivacy, whose noise came from math/rand, so
// anyone who knew the flag could replay the stream and subtract it.
// Twenty releases at ε = 0.1 are taken here and every stream a daemon
// flag could have selected — seeds S + 3 for S in 0–1,000, the default
// among them — is replayed through that sampler: none reproduces the
// releases.
func TestPrivateReleasesUnpredictable(t *testing.T) {
	sys, wl := newTestSystem(t)
	q := Query{Rect: centered(sys, 0.6), T1: wl.Horizon / 2, Kind: Snapshot}
	exact, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	const releases, eps = 20, 0.1
	if err := sys.EnablePrivacy(releases*eps, eps); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, releases)
	for i := range got {
		resp, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = resp.Count
	}
	// replay releases the exact count as the seeded releaser did from
	// rand.NewSource(seed): two one-sided geometrics by inversion, the
	// difference added, negatives clamped. Against that releaser it
	// reproduced all twenty releases of seed 45.
	replay := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		g := func() float64 { return math.Floor(-math.Log1p(-rng.Float64()) / eps) }
		out := make([]float64, releases)
		for i := range out {
			out[i] = max(0, exact.Count+g()-g())
		}
		return out
	}
	for s := int64(0); s <= 1000; s++ {
		if slices.Equal(got, replay(s+3)) {
			t.Fatalf("the releases are the stream of -seed %d: %v", s, got)
		}
	}
}
