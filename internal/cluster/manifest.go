// Package cluster implements multi-process scale-out (DESIGN.md §16):
// a stateless router fronting N stqd cells, each serving one spatial
// partition of the recursive-median layout (internal/partition). The
// router runs partition.Set over members that are the cells — the
// binary wire protocol (internal/wire) is the transport — and degrades
// a dead or timed-out cell into a sound widened [Lower,Upper] interval
// (stq.Response.Degradation) instead of failing the query.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"

	"repro/internal/partition"
	"repro/internal/roadnet"
)

// manifestVersion is bumped on incompatible manifest changes.
const manifestVersion = 1

// WorldSpec pins the synthetic world every cluster member rebuilds on
// boot. GridCity is deterministic given (opts, seed), so the spec is a
// complete description of the shared world.
type WorldSpec struct {
	Kind       string  `json:"kind"` // only "grid" today
	NX         int     `json:"nx"`
	NY         int     `json:"ny"`
	Spacing    float64 `json:"spacing"`
	Jitter     float64 `json:"jitter"`
	RemoveFrac float64 `json:"remove_frac"`
	CurveFrac  float64 `json:"curve_frac"`
	Seed       int64   `json:"seed"`
}

// GridSpec describes a grid world for the manifest.
func GridSpec(opts roadnet.GridOpts, seed int64) WorldSpec {
	return WorldSpec{
		Kind: "grid", NX: opts.NX, NY: opts.NY, Spacing: opts.Spacing,
		Jitter: opts.Jitter, RemoveFrac: opts.RemoveFrac,
		CurveFrac: opts.CurveFrac, Seed: seed,
	}
}

// Manifest is the pinned cluster topology (cluster.json): world spec,
// cell count, and the hash of the partition layout every member must
// agree on. The layout itself is recomputed deterministically
// (partition.Build) and verified against the hash, so a cell started
// with a stale or foreign manifest refuses to serve rather than
// answering with somebody else's partition boundaries.
type Manifest struct {
	Version int       `json:"version"`
	Cells   int       `json:"cells"`
	World   WorldSpec `json:"world"`
	// LayoutHash is HashLayout of the recomputed layout; Hello
	// handshakes carry it so router and cell fail fast on divergence.
	LayoutHash uint64 `json:"layout_hash"`
}

// NewManifest builds the manifest for the given world spec and cell
// count, returning the materialized world and layout alongside.
func NewManifest(spec WorldSpec, cells int) (*Manifest, *roadnet.World, *partition.Layout, error) {
	w, err := buildWorld(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	lay, err := partition.Build(w, cells)
	if err != nil {
		return nil, nil, nil, err
	}
	m := &Manifest{
		Version:    manifestVersion,
		Cells:      cells,
		World:      spec,
		LayoutHash: HashLayout(lay),
	}
	return m, w, lay, nil
}

// Materialize rebuilds the manifest's world and layout and verifies the
// layout hash.
func (m *Manifest) Materialize() (*roadnet.World, *partition.Layout, error) {
	if m.Version != manifestVersion {
		return nil, nil, fmt.Errorf("cluster: manifest version %d (want %d)", m.Version, manifestVersion)
	}
	if m.Cells < 1 {
		return nil, nil, fmt.Errorf("cluster: manifest cell count %d < 1", m.Cells)
	}
	w, err := buildWorld(m.World)
	if err != nil {
		return nil, nil, err
	}
	lay, err := partition.Build(w, m.Cells)
	if err != nil {
		return nil, nil, err
	}
	if h := HashLayout(lay); h != m.LayoutHash {
		return nil, nil, fmt.Errorf("cluster: layout hash %#016x does not match manifest %#016x (world or partition code drifted)", h, m.LayoutHash)
	}
	return w, lay, nil
}

// Save writes the manifest as indented JSON.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadManifest reads a manifest file. Materialize performs the
// semantic validation; this only rejects malformed JSON.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return m, nil
}

func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// HashLayout is an FNV-1a digest of the layout's complete ownership
// function (cell count + per-junction owners; road ownership is a pure
// function of junction ownership).
func HashLayout(lay *partition.Layout) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(lay.Cells))
	h.Write(b[:])
	for _, c := range lay.CellOfJunction {
		binary.LittleEndian.PutUint32(b[:4], uint32(c))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// maxGridJunctions bounds NX·NY: every member builds the whole world at
// boot (≈ 6 s for a 1024×1024 grid), so a size beyond it is refused
// before anything is allocated. maxGridExtent bounds max(NX, NY)·Spacing
// far below where the geometry's squared lengths overflow (≈ 1e154).
const (
	maxGridJunctions = 1 << 20
	maxGridExtent    = 1e12
)

// validate refuses, by field name, a spec GridCity would take to an
// out-of-memory, a hang or a world of non-finite coordinates.
func (spec WorldSpec) validate() error {
	switch {
	case spec.Kind != "grid":
		return fmt.Errorf("cluster: unknown world kind %q", spec.Kind)
	case spec.NX < 2 || spec.NY < 2:
		return fmt.Errorf("cluster: world nx×ny %d×%d, want at least 2×2", spec.NX, spec.NY)
	case spec.NX > maxGridJunctions/spec.NY:
		return fmt.Errorf("cluster: world nx×ny %d×%d exceeds %d junctions", spec.NX, spec.NY, maxGridJunctions)
	case !(spec.Spacing > 0 && float64(max(spec.NX, spec.NY))*spec.Spacing <= maxGridExtent):
		return fmt.Errorf("cluster: world spacing %v, want positive and an extent of at most %g", spec.Spacing, maxGridExtent)
	case !(spec.Jitter >= 0 && spec.Jitter < 0.5):
		return fmt.Errorf("cluster: world jitter %v out of [0, 0.5)", spec.Jitter)
	case !(spec.RemoveFrac >= 0 && spec.RemoveFrac <= 1):
		return fmt.Errorf("cluster: world remove_frac %v out of [0, 1]", spec.RemoveFrac)
	case !(spec.CurveFrac >= 0 && spec.CurveFrac <= 1):
		return fmt.Errorf("cluster: world curve_frac %v out of [0, 1]", spec.CurveFrac)
	}
	return nil
}

func buildWorld(spec WorldSpec) (*roadnet.World, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	opts := roadnet.GridOpts{
		NX: spec.NX, NY: spec.NY, Spacing: spec.Spacing,
		Jitter: spec.Jitter, RemoveFrac: spec.RemoveFrac, CurveFrac: spec.CurveFrac,
	}
	return roadnet.GridCity(opts, rand.New(rand.NewSource(spec.Seed)))
}
