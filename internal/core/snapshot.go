package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/planar"
)

// This file implements the snapshot export/import hooks of the
// durability subsystem (internal/wal, DESIGN.md §11): a consistent,
// world-independent copy of every tracking form, serializable by the
// checkpoint writer and restorable into a fresh store such that query
// answers are bit-identical to the store the snapshot was taken from.

// StoreSnapshot is a point-in-time copy of a Store's entire counting
// state: the clock, the event count, and every non-empty tracking form —
// roads and world edges alike, by tracked-edge id. Roads is sorted
// ascending by ID; timestamp slices are non-decreasing.
//
// An exported snapshot shares its timestamp slices with the live store
// (they are immutable up to the captured lengths), so holders must
// treat it as read-only.
type StoreSnapshot struct {
	Clock  float64
	Events int64
	Roads  []RoadForms
}

// RoadForms is the (γ⁺, γ⁻) pair of one tracked edge: crossing
// timestamps in the edge's tail→head (Fwd) and head→tail (Rev)
// directions — U→V and V→U on a road, enter and leave on a world edge.
// When the store runs a tiered history (DESIGN.md §12), the cold
// prefixes of both directions travel in the edge's compact sealed run
// (Sealed, nil when the edge has no sealed events); Fwd/Rev then hold
// only the hot tails. A direction's full sequence is its sealed events
// followed by its hot ones.
type RoadForms struct {
	Road     planar.EdgeID
	Fwd, Rev []float64
	Sealed   *SealedRun
}

// ExportSnapshot captures a globally consistent cut of the store: all
// write stripes are locked for the duration of the pointer capture, so
// the snapshot corresponds to one instant of the serialized write
// history — exactly what the checkpoint writer needs to pair the
// snapshot with a log sequence number. The capture itself copies only
// slice headers (published tracking forms are immutable), so the
// stop-the-writers window is O(edges), not O(events).
func (s *Store) ExportSnapshot() *StoreSnapshot {
	for i := range s.shards {
		s.shards[i].lock()
	}
	snap := &StoreSnapshot{Clock: s.Clock(), Events: s.events.Load()}
	for road := range s.roads {
		if tr := s.roads[road].Load(); tr != nil && tr.Len() > 0 {
			rf := RoadForms{
				Road: planar.EdgeID(road), Fwd: tr.fwd, Rev: tr.rev,
			}
			// A sealed run is immutable once published, so the snapshot
			// shares it by pointer — no decode, no copy.
			if tr.sealed != nil {
				rf.Sealed = &SealedRun{r: tr.sealed}
			}
			snap.Roads = append(snap.Roads, rf)
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	return snap
}

// RestoreSnapshot installs a snapshot into an empty store. The snapshot
// is fully validated first — a clock ≥ 0, edge range, ascending ID
// order, no empty edge, per-form monotone timestamps and no NaN,
// event-count and clock consistency — so a corrupted checkpoint that
// slipped past its CRC is rejected, never half-applied.
// Timestamp slices are copied, so the snapshot may alias another store.
//
// A restored store answers every Counter and StepLister call
// bit-identically to the store the snapshot was exported from:
// restoration preserves the exact timestamp multiset and per-direction
// order the counting theorems binary-search over.
func (s *Store) RestoreSnapshot(snap *StoreSnapshot) error {
	if n := s.NumEvents(); n != 0 {
		return fmt.Errorf("core: RestoreSnapshot into a store with %d events (want empty)", n)
	}
	var total int64
	var maxT float64
	maxT = math.Inf(-1)
	note := func(ts []float64) { // caller pre-validated monotonicity
		total += int64(len(ts))
		if len(ts) > 0 && ts[len(ts)-1] > maxT {
			maxT = ts[len(ts)-1]
		}
	}
	if !(snap.Clock >= 0) {
		return fmt.Errorf("core: snapshot clock %v is not a time ≥ 0", snap.Clock)
	}
	prevRoad := planar.EdgeID(-1)
	for _, rf := range snap.Roads {
		if rf.Road < 0 || int(rf.Road) >= len(s.roads) {
			return fmt.Errorf("core: snapshot road %d out of range [0,%d)", rf.Road, len(s.roads))
		}
		if rf.Road <= prevRoad {
			return fmt.Errorf("core: snapshot roads not in ascending order at road %d", rf.Road)
		}
		prevRoad = rf.Road
		if tail, head := s.w.TrackedEnds(rf.Road); tail == s.w.Ext() && !s.w.IsGateway(head) {
			return fmt.Errorf("core: snapshot edge %d is the world edge of junction %d, which is not a gateway", rf.Road, head)
		}
		// ExportSnapshot writes only edges that carry events.
		if len(rf.Fwd)+len(rf.Rev)+rf.Sealed.NumEvents() == 0 {
			return fmt.Errorf("core: snapshot road %d holds no events", rf.Road)
		}
		var sealed *run
		if rf.Sealed != nil {
			sealed = rf.Sealed.r
			if err := sealed.validate(); err != nil {
				return fmt.Errorf("core: snapshot road %d sealed run: %w", rf.Road, err)
			}
			total += int64(sealed.n)
			maxT = max(maxT, sealed.last)
		}
		for di, dir := range [][]float64{rf.Fwd, rf.Rev} {
			// A sorted slice holds its NaNs first; no store holds one.
			if !sort.Float64sAreSorted(dir) || len(dir) > 0 && math.IsNaN(dir[0]) {
				return fmt.Errorf("core: snapshot road %d has out-of-order or NaN timestamps", rf.Road)
			}
			// Per direction the sealed events precede the hot ones.
			if sealed.dirLen(di == 0) > 0 && len(dir) > 0 && dir[0] < sealed.dirLast[di] {
				return fmt.Errorf("core: snapshot road %d hot timestamp %v precedes sealed tail %v", rf.Road, dir[0], sealed.dirLast[di])
			}
			note(dir)
		}
	}
	if total != snap.Events {
		return fmt.Errorf("core: snapshot holds %d timestamps but claims %d events", total, snap.Events)
	}
	if total > 0 && snap.Clock < maxT {
		return fmt.Errorf("core: snapshot clock %v behind max timestamp %v", snap.Clock, maxT)
	}

	for _, rf := range snap.Roads {
		tr := &Tracker{fwd: copyTimes(rf.Fwd), rev: copyTimes(rf.Rev)}
		// A sealed run is immutable, so the restored store shares it
		// with the snapshot by pointer rather than re-encoding.
		if rf.Sealed != nil {
			tr.sealed = rf.Sealed.r
		}
		s.roads[rf.Road].Store(tr)
	}
	s.clockBits.Store(math.Float64bits(snap.Clock))
	s.events.Store(snap.Events)
	return nil
}

func copyTimes(ts []float64) []float64 {
	if len(ts) == 0 {
		return nil
	}
	out := make([]float64, len(ts))
	copy(out, ts)
	return out
}
