package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, P: geom.Pt(rng.Float64()*100, rng.Float64()*100)}
	}
	return items
}

func bruteRange(items []Item, r geom.Rect) []int {
	var out []int
	for _, it := range items {
		if r.Contains(it.P) {
			out = append(out, it.ID)
		}
	}
	sort.Ints(out)
	return out
}

func ids(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Ints(out)
	return out
}

// kdRange returns the ids of the kd-tree range query, sorted.
func kdRange(kt *KDTree, r geom.Rect) []int {
	out := RangeIDs[int](kt, r, nil)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKDTreeRangeAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 300)
	kt := BuildKDTree(items)
	for trial := 0; trial < 50; trial++ {
		r := geom.NewRect(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			geom.Pt(rng.Float64()*100, rng.Float64()*100))
		got := kdRange(kt, r)
		want := bruteRange(items, r)
		if !equalInts(got, want) {
			t.Fatalf("range %v: got %d items, want %d", r, len(got), len(want))
		}
		// Ids come out in the caller's own id type, appended behind dst.
		type nodeID int
		if typed := RangeIDs(kt, r, []nodeID{-1}); typed[0] != -1 || len(typed) != len(want)+1 {
			t.Fatalf("range %v: RangeIDs appended %d ids to dst, want %d", r, len(typed)-1, len(want))
		}
	}
}

func TestKDTreeKNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 150)
	kt := BuildKDTree(items)
	for trial := 0; trial < 30; trial++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		k := 1 + rng.Intn(10)
		got := kt.KNearest(p, k)
		if len(got) != k {
			t.Fatalf("KNearest returned %d, want %d", len(got), k)
		}
		// Compare against brute-force sorted distances.
		byDist := make([]Item, len(items))
		copy(byDist, items)
		sort.Slice(byDist, func(i, j int) bool {
			return byDist[i].P.Dist2(p) < byDist[j].P.Dist2(p)
		})
		for i := 0; i < k; i++ {
			if got[i].P.Dist2(p) != byDist[i].P.Dist2(p) {
				t.Fatalf("k-NN rank %d: got dist %v, want %v",
					i, got[i].P.Dist2(p), byDist[i].P.Dist2(p))
			}
		}
		// Results must be ordered nearest first.
		for i := 1; i < k; i++ {
			if got[i-1].P.Dist2(p) > got[i].P.Dist2(p) {
				t.Fatal("k-NN results not ordered")
			}
		}
	}
}

func TestKDTreeEmpty(t *testing.T) {
	kt := BuildKDTree(nil)
	if got := RangeIDs[int](kt, geom.RectWH(0, 0, 1, 1), nil); got != nil {
		t.Error("Range on empty tree returned items")
	}
	if got := kt.KNearest(geom.Pt(0, 0), 3); got != nil {
		t.Error("KNearest on empty tree returned items")
	}
}

func TestKDTreeLeavesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randomItems(rng, 137)
	kt := BuildKDTree(items)
	for _, maxLeaf := range []int{1, 4, 16, 200} {
		leaves := kt.Leaves(maxLeaf)
		var all []int
		for _, leaf := range leaves {
			if len(leaf) == 0 {
				t.Error("empty leaf")
			}
			for _, it := range leaf {
				all = append(all, it.ID)
			}
		}
		sort.Ints(all)
		if !equalInts(all, ids(items)) {
			t.Fatalf("maxLeaf=%d: leaves do not partition the items", maxLeaf)
		}
	}
}

func TestQuadTreeLeavesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(rng, 211)
	qt := BuildQuadTree(items, 5)
	leaves := qt.Leaves()
	var all []int
	for _, leaf := range leaves {
		if len(leaf) == 0 {
			t.Error("empty leaf returned")
		}
		if len(leaf) > 5 {
			t.Errorf("leaf size %d exceeds capacity 5", len(leaf))
		}
		for _, it := range leaf {
			all = append(all, it.ID)
		}
	}
	sort.Ints(all)
	if !equalInts(all, ids(items)) {
		t.Fatal("leaves do not partition the items")
	}
}

func TestQuadTreeEmpty(t *testing.T) {
	qt := BuildQuadTree(nil, 4)
	if leaves := qt.Leaves(); leaves != nil {
		t.Error("Leaves on empty tree returned data")
	}
}

func TestQuadTreeDuplicatePoints(t *testing.T) {
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{ID: i, P: geom.Pt(1, 1)}
	}
	qt := BuildQuadTree(items, 2)
	n := 0
	for _, leaf := range qt.Leaves() {
		n += len(leaf)
	}
	if n != 20 {
		t.Errorf("duplicate-point leaves hold %d items, want 20", n)
	}
}

func TestKDTreePropertyRandomizedEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		items := randomItems(rng, 1+rng.Intn(80))
		kt := BuildKDTree(items)
		r := geom.NewRect(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			geom.Pt(rng.Float64()*100, rng.Float64()*100))
		return equalInts(kdRange(kt, r), bruteRange(items, r))
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
