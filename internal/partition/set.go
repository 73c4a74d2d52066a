package partition

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Member is the per-shard surface the Set drives: the store reads the
// query engine consumes, the two halves of a two-phase write, and the
// event count the Set composes its own from. *core.Store is a Member; so
// is a client of a store in another process (internal/cluster).
//
// A member that cannot answer a read returns zero terms rather than an
// error — a region count has no error path — and whoever built the
// member accounts for the hole (cluster.RemoteSet.WidenFor). Writes
// return errors.
type Member interface {
	core.Counter
	core.StepLister
	// ValidateBatch checks that structurally valid events are per-form
	// monotone against the member's state, applying nothing; a member
	// that cannot take a write now says so here.
	ValidateBatch(events []core.Event) error
	// RecordBatch applies events atomically. An error wrapping ErrParked
	// means the member kept the sub-batch and completes it on its own.
	// Once another member of a batch has applied or kept its share, a
	// member whose RecordBatch failed otherwise is asked once more: the
	// batch is committed.
	RecordBatch(events []core.Event) error
	NumEvents() int
}

// ErrParked marks a member's apply that did not complete but that the
// member keeps and completes before it serves again: the batch is
// committed, must not be sent again, and the member is not asked for
// the sub-batch a second time.
var ErrParked = errors.New("partition: sub-batch kept until its member can take it")

// Set is the sharded store: one Member per cell of a Layout, each
// holding only the events its cell owns. It implements the read
// contract the query engine consumes (core.Counter, core.StepLister)
// and the ingestion surface stq.System drives, so it slots in wherever a
// single store does. It is
// the one place that knows the ownership invariant: every term of a
// boundary integral and every event of a batch belongs to exactly one
// member.
//
// Time order is the members' to check, per tracking-form direction,
// exactly as a single store checks it: every form lives in one member.
//
// # Concurrency
//
// Reads take no Set-level lock. Writes touching one member run
// concurrently under a shared routing lock; multi-member batches take it
// exclusively so their two-phase commit (validate everywhere, then apply
// everywhere) observes stable member state and stays atomic across
// members. That holds only while this Set is the members' sole writer.
type Set struct {
	w       *roadnet.World
	lay     *Layout
	members []Member
	// stores are the members of a set that built its own in-memory
	// stores (NewSet); nil over caller-supplied members, which are taken
	// to block on I/O and are therefore always called concurrently.
	stores []*core.Store

	// rmu is the routing lock: RLock for single-member appends, Lock for
	// multi-member two-phase batches.
	rmu sync.RWMutex
	// scratch pools the per-query grouping buffers.
	scratch sync.Pool
}

// gatherScratch is the pooled working set of one scatter-gather call:
// the per-member cut groups, the members they involve in ascending
// order, and the members' partial sums and step functions.
type gatherScratch struct {
	cuts     [][]core.CutRoad
	involved []int
	partial  []float64
	steps    [][]core.SignedEvent
	lists    [][]core.SignedEvent
}

// NewSet builds the partitioned in-process store over w: one private
// full-world core.Store per cell of the layout.
func NewSet(w *roadnet.World, lay *Layout) *Set {
	stores := make([]*core.Store, lay.Cells)
	members := make([]Member, lay.Cells)
	for i := range stores {
		stores[i] = core.NewStore(w)
		members[i] = stores[i]
	}
	s := NewSetOver(w, lay, members)
	s.stores = stores
	return s
}

// NewSetOver builds the set over caller-supplied members; members[i]
// serves cell i of the layout.
func NewSetOver(w *roadnet.World, lay *Layout, members []Member) *Set {
	s := &Set{w: w, lay: lay, members: members}
	s.scratch.New = func() any {
		return &gatherScratch{
			cuts:    make([][]core.CutRoad, lay.Cells),
			partial: make([]float64, lay.Cells),
			steps:   make([][]core.SignedEvent, lay.Cells),
		}
	}
	return s
}

// World returns the world the set tracks.
func (s *Set) World() *roadnet.World { return s.w }

// Layout returns the spatial layout.
func (s *Set) Layout() *Layout { return s.lay }

// errNotOwned refuses a whole-set snapshot over members the set did not
// build: their state lives with whoever did.
var errNotOwned = errors.New("partition: snapshots need a set that owns its stores (NewSet)")

// ExportSnapshot captures the set as one store's snapshot: the members'
// edges merged in ascending id order, their event counts summed, and the
// composite clock. Every tracked edge has exactly one owner, so the
// members' snapshots are disjoint and their union is the snapshot a
// single store fed the same batches exports.
// Writes through the set are held off for the capture.
func (s *Set) ExportSnapshot() (*core.StoreSnapshot, error) {
	if s.stores == nil {
		return nil, errNotOwned
	}
	s.rmu.Lock()
	defer s.rmu.Unlock()
	snap := &core.StoreSnapshot{Clock: s.Clock()}
	for _, st := range s.stores {
		part := st.ExportSnapshot()
		snap.Events += part.Events
		snap.Roads = append(snap.Roads, part.Roads...)
	}
	slices.SortFunc(snap.Roads, func(a, b core.RoadForms) int { return cmp.Compare(a.Road, b.Road) })
	return snap, nil
}

// RestoreSnapshot installs one store's snapshot into an empty set,
// whatever set or store exported it: each edge goes to its owner under
// this set's layout and every member restores its share and the
// snapshot's clock. What a member cannot see alone — an edge id out of range, edges out of
// ascending order, an event count that does not match the edges — is
// refused before any member restores. A member's own refusal can leave
// earlier members restored: discard the set then.
func (s *Set) RestoreSnapshot(snap *core.StoreSnapshot) error {
	if s.stores == nil {
		return errNotOwned
	}
	shares := make([]core.StoreSnapshot, len(s.stores))
	var total int64
	prev := planar.EdgeID(-1)
	for _, rf := range snap.Roads {
		if rf.Road < 0 || int(rf.Road) >= len(s.lay.cellOfEdge) {
			return fmt.Errorf("partition: snapshot edge %d out of range [0,%d)", rf.Road, len(s.lay.cellOfEdge))
		}
		if rf.Road <= prev {
			return fmt.Errorf("partition: snapshot edges not in ascending order at edge %d", rf.Road)
		}
		prev = rf.Road
		n := int64(len(rf.Fwd) + len(rf.Rev) + rf.Sealed.NumEvents())
		share := &shares[s.lay.cellOfEdge[rf.Road]]
		share.Roads = append(share.Roads, rf)
		share.Events += n
		total += n
	}
	if total != snap.Events {
		return fmt.Errorf("partition: snapshot holds %d timestamps but claims %d events", total, snap.Events)
	}
	for p, st := range s.stores {
		shares[p].Clock = snap.Clock
		if err := st.RestoreSnapshot(&shares[p]); err != nil {
			return fmt.Errorf("partition: member %d: %w", p, err)
		}
	}
	return nil
}

// SetOrdering does nothing: the members check order per tracking-form
// direction, the only contract.
//
// Deprecated: drop the call.
func (s *Set) SetOrdering(core.Ordering) {}

// Clock returns the composite clock of the stores the set owns: the max
// store clock, 0 over caller-supplied members.
func (s *Set) Clock() float64 {
	var max float64
	for _, st := range s.stores {
		if c := st.Clock(); c > max {
			max = c
		}
	}
	return max
}

// NumEvents returns the total ingested event count across members.
func (s *Set) NumEvents() int {
	var n int
	for _, m := range s.members {
		n += m.NumEvents()
	}
	return n
}

// fan calls f(p) for every listed member and waits for all of them.
// Members the Set did not build (NewSetOver) are taken to block on I/O
// and run on one goroutine each, so their waits overlap; the Set's own
// in-memory stores run in list order on the caller's goroutine. This is
// the one rule for reads and writes.
func (s *Set) fan(ps []int, f func(p int)) {
	if s.stores != nil || len(ps) < 2 {
		for _, p := range ps {
			f(p)
		}
		return
	}
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			f(p)
		}(p)
	}
	wg.Wait()
}

// ---------------------------------------------------------------------
// Write side: route every event to its owner; a batch that spans
// members commits in two phases.

// RecordBatch ingests one atomic batch, splitting it across the owning
// members (mobility.Recorder).
func (s *Set) RecordBatch(events []core.Event) error {
	_, err := s.RecordBatchSplit(events)
	return err
}

// RecordBatchGated is RecordBatch with a gate: once the batch is
// validated and before any member applies it, gate (when not nil) runs,
// and its error refuses the batch with nothing applied anywhere. A
// durable System logs the batch there.
func (s *Set) RecordBatchGated(events []core.Event, gate func() error) error {
	_, err := s.record(events, gate)
	return err
}

// RecordBatchSplit ingests one atomic batch and returns its per-member
// sub-batches (subs[p] holds cell p's events in batch order; nil when
// the cell received none).
//
// The batch stays atomic across members. A single-member batch of a set
// that owns its stores is atomic in its member. Every other batch is
// validated on every involved member first — where a member that cannot
// take a write refuses — and applied only then, a multi-member one under
// the routing lock held exclusively, so a refusal anywhere applies
// nothing anywhere: caller-supplied members validate single-member
// batches too, so their RecordBatch only sees a sub-batch they accepted.
// Once one member applied or kept its share (ErrParked), the batch is
// committed: a member whose apply failed otherwise is asked once more,
// which a remote member answers by keeping the sub-batch until its cell
// can take it (DESIGN.md §16.3). What still fails names the member: an
// apply that failed outright before a share kept for later.
func (s *Set) RecordBatchSplit(events []core.Event) ([][]core.Event, error) {
	return s.record(events, nil)
}

// record is RecordBatchSplit with RecordBatchGated's gate.
func (s *Set) record(events []core.Event, gate func() error) ([][]core.Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	subs, involved, sorted, err := s.split(events)
	if err != nil {
		return nil, err
	}
	// Single-member batches only share the routing lock, so batches for
	// different members run concurrently.
	var mu sync.Locker = s.rmu.RLocker()
	if len(involved) > 1 {
		mu = &s.rmu
	}
	mu.Lock()
	defer mu.Unlock()
	if len(involved) == 1 && s.stores != nil {
		// An in-memory member's own atomic RecordBatch suffices.
		if err := s.stores[involved[0]].RecordBatchGated(events, gate); err != nil {
			return nil, err
		}
		return subs, nil
	}
	if err := s.validate(subs, involved, events[0].T, sorted); err != nil {
		return nil, err
	}
	if gate != nil {
		if err := gate(); err != nil {
			return nil, err
		}
	}
	// Phase 2: apply, and ask a failed member once more when another one
	// applied or kept its share. A member that kept its own is never asked
	// again: it completes the sub-batch itself. A failure left after that
	// leaves the members inconsistent, so it is surfaced loudly, ahead of
	// a kept share.
	errs := make([]error, len(s.members))
	s.fan(involved, func(p int) { errs[p] = s.members[p].RecordBatch(subs[p]) })
	committed := func(p int) bool { return errs[p] == nil || errors.Is(errs[p], ErrParked) }
	if slices.ContainsFunc(involved, committed) {
		for _, p := range involved {
			if !committed(p) {
				errs[p] = s.members[p].RecordBatch(subs[p])
			}
		}
	}
	for _, p := range involved {
		if !committed(p) {
			return nil, fmt.Errorf("member %d: validated sub-batch failed to apply: %w", p, errs[p])
		}
	}
	for _, p := range involved {
		if errs[p] != nil {
			return nil, fmt.Errorf("member %d: %w", p, errs[p])
		}
	}
	return subs, nil
}

// split is pass 0, lock-free: structural validation and routing. It
// returns the per-member sub-batches in batch order (the batch itself
// when one member owns all of it), the involved members in ascending
// order, and whether the batch is in time order.
func (s *Set) split(events []core.Event) (subs [][]core.Event, involved []int, sorted bool, err error) {
	counts := make([]int, len(s.members))
	prev := math.Inf(-1)
	sorted = true
	for i, ev := range events {
		owner, err := s.ownerOf(i, ev)
		if err != nil {
			return nil, nil, false, err
		}
		if ev.T < prev {
			sorted = false
		}
		prev = ev.T
		counts[owner]++
	}
	for p, c := range counts {
		if c > 0 {
			involved = append(involved, p)
		}
	}
	subs = make([][]core.Event, len(s.members))
	if len(involved) == 1 {
		subs[involved[0]] = events
		return subs, involved, sorted, nil
	}
	for _, p := range involved {
		subs[p] = make([]core.Event, 0, counts[p])
	}
	for i, ev := range events {
		owner, _ := s.ownerOf(i, ev)
		subs[owner] = append(subs[owner], ev)
	}
	return subs, involved, sorted, nil
}

// validate is phase 1: every involved member checks its sub-batch
// against its state, applying nothing (through fan); the first refusal
// in cell order wins. A batch in time order from the composite clock on
// cannot violate a form, so a set of in-memory stores, which refuse a
// routed event on order alone, skips phase 1 for it. Caller-supplied members always validate: it is also
// where a lost one is found before anything applies (a remote member
// answers it without an exchange when it can prove the cell accepts).
func (s *Set) validate(subs [][]core.Event, involved []int, first float64, sorted bool) error {
	if sorted && s.stores != nil && first >= s.Clock() {
		return nil
	}
	errs := make([]error, len(s.members))
	s.fan(involved, func(p int) { errs[p] = s.members[p].ValidateBatch(subs[p]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ownerOf validates one event's structure and returns its owning cell.
// It refuses what core.Store refuses, in the same words, so a batch no
// member would take is refused before any member applies its share.
func (s *Set) ownerOf(i int, ev core.Event) (int, error) {
	if math.IsNaN(ev.T) || math.IsInf(ev.T, 0) {
		return 0, fmt.Errorf("core: batch event %d: timestamp %v is not finite", i, ev.T)
	}
	switch ev.Kind {
	case core.EventMove:
		if ev.Road < 0 || int(ev.Road) >= len(s.lay.CellOfRoad) {
			return 0, fmt.Errorf("core: batch event %d: road %d out of range", i, ev.Road)
		}
		e := s.w.Star.Edge(ev.Road)
		if ev.From != e.U && ev.From != e.V {
			return 0, fmt.Errorf("core: batch event %d: node %d is not an endpoint of road %d", i, ev.From, ev.Road)
		}
		return s.lay.CellOfRoad[ev.Road], nil
	case core.EventEnter, core.EventLeave:
		if ev.Gateway < 0 || int(ev.Gateway) >= len(s.lay.CellOfJunction) {
			return 0, fmt.Errorf("core: batch event %d: gateway %d out of range", i, ev.Gateway)
		}
		if !s.w.IsGateway(ev.Gateway) {
			return 0, fmt.Errorf("core: batch event %d: junction %d is not a gateway", i, ev.Gateway)
		}
		return s.lay.CellOfJunction[ev.Gateway], nil
	}
	return 0, fmt.Errorf("core: batch event %d: unknown kind %d", i, ev.Kind)
}

// ---------------------------------------------------------------------
// Read side. Per-term reads dispatch to the owning member, so every
// term of every query is computed by exactly the code a single store
// would run, on exactly the same data.

// RoadCrossings implements core.Counter.
func (s *Set) RoadCrossings(edge planar.EdgeID, toward planar.NodeID, t float64) float64 {
	return s.members[s.lay.cellOfEdge[edge]].RoadCrossings(edge, toward, t)
}

// ---------------------------------------------------------------------
// Scatter-gather perimeter integration. Each member integrates the cut
// edges it owns; the partial sums are integers held
// in float64, so their merge is exact in any order and the total is
// bit-identical to single-store accumulation.

// group splits the perimeter into per-member cut groups inside a pooled
// scratch, which the caller hands back to release.
func (s *Set) group(cuts []core.CutRoad) *gatherScratch {
	sc := s.scratch.Get().(*gatherScratch)
	for _, cr := range cuts {
		p := s.lay.cellOfEdge[cr.Road]
		sc.cuts[p] = append(sc.cuts[p], cr)
	}
	for p := range sc.cuts {
		if len(sc.cuts[p]) > 0 {
			sc.involved = append(sc.involved, p)
		}
	}
	return sc
}

func (s *Set) release(sc *gatherScratch) {
	for _, p := range sc.involved {
		sc.cuts[p] = sc.cuts[p][:0]
	}
	sc.involved = sc.involved[:0]
	s.scratch.Put(sc)
}

// sum evaluates one partial per involved member (through fan) and adds
// them up in ascending cell order.
func (s *Set) sum(sc *gatherScratch, eval func(p int) float64) float64 {
	s.fan(sc.involved, func(p int) { sc.partial[p] = eval(p) })
	var total float64
	for _, p := range sc.involved {
		total += sc.partial[p]
	}
	return total
}

// CountCuts implements core.Counter by scatter-gather.
func (s *Set) CountCuts(cuts []core.CutRoad, t float64) float64 {
	sc := s.group(cuts)
	defer s.release(sc)
	return s.sum(sc, func(p int) float64 {
		return s.members[p].CountCuts(sc.cuts[p], t)
	})
}

// CutFlow implements core.Counter by scatter-gather.
func (s *Set) CutFlow(cuts []core.CutRoad, t1, t2 float64) float64 {
	sc := s.group(cuts)
	defer s.release(sc)
	return s.sum(sc, func(p int) float64 {
		return s.members[p].CutFlow(sc.cuts[p], t1, t2)
	})
}

// StaticSteps implements core.StepLister by scatter-gather: every
// involved member answers the step function of its share of the
// perimeter, and the shares add up — bases as numbers, steps by
// core.SumSteps, one radix sort of every member's steps and one scan
// that sums each instant. The sum is the step function a single store
// holding all the events would return, entry for entry: an instant's
// net change is the sum of its per-member net changes whichever way the
// perimeter is split. (Per-member minima would not merge: two members
// can dip at different instants.)
func (s *Set) StaticSteps(cuts []core.CutRoad, t1, t2 float64, dst []core.SignedEvent) (float64, []core.SignedEvent) {
	sc := s.group(cuts)
	defer s.release(sc)
	if s.stores == nil {
		s.fan(sc.involved, func(p int) { s.memberSteps(sc, p, t1, t2) })
	} else {
		// In turn, without fan: the closure it takes escapes to its
		// goroutines and would be this path's only allocation.
		for _, p := range sc.involved {
			s.memberSteps(sc, p, t1, t2)
		}
	}
	var base float64
	sc.lists = sc.lists[:0]
	for _, p := range sc.involved {
		base += sc.partial[p]
		sc.lists = append(sc.lists, sc.steps[p])
	}
	return base, core.SumSteps(dst, sc.lists)
}

// memberSteps asks member p for the step function of its group.
func (s *Set) memberSteps(sc *gatherScratch, p int, t1, t2 float64) {
	sc.partial[p], sc.steps[p] = s.members[p].StaticSteps(sc.cuts[p], t1, t2, sc.steps[p][:0])
}

// ---------------------------------------------------------------------
// Aggregated maintenance surfaces: storage, history, memory — of the
// in-memory stores a NewSet set owns. Members supplied by a caller keep
// their own, so over them these report nothing.

// Storage aggregates the members' storage stats (core.StorageStats
// semantics: logical 8-byte timestamps over road trackers).
func (s *Set) Storage() core.StorageStats {
	agg := core.StorageStats{TimestampsPerRoad: make([]int, len(s.lay.CellOfRoad))}
	for _, st := range s.stores {
		ps := st.Storage()
		for i, n := range ps.TimestampsPerRoad {
			agg.TimestampsPerRoad[i] += n
		}
		agg.TotalTimestamps += ps.TotalTimestamps
	}
	agg.Bytes = agg.TotalTimestamps * 8
	return agg
}

// SetHistoryConfig forwards the tiered-history configuration to every
// member store.
func (s *Set) SetHistoryConfig(cfg core.HistoryConfig) error {
	for _, st := range s.stores {
		if err := st.SetHistoryConfig(cfg); err != nil {
			return err
		}
	}
	return nil
}

// GetHistoryConfig returns the member stores' (shared) history
// configuration.
func (s *Set) GetHistoryConfig() (core.HistoryConfig, bool) {
	if len(s.stores) == 0 {
		return core.HistoryConfig{}, false
	}
	return s.stores[0].GetHistoryConfig()
}

// SealColdPrefixes seals every member store and sums the stats.
func (s *Set) SealColdPrefixes() core.SealStats {
	var agg core.SealStats
	for _, st := range s.stores {
		ps := st.SealColdPrefixes()
		agg.Roads += ps.Roads
		agg.SealedEvents += ps.SealedEvents
		agg.LossyFallbacks += ps.LossyFallbacks
	}
	return agg
}

// Memory sums the members' resident-memory breakdowns.
func (s *Set) Memory() core.MemoryStats {
	var agg core.MemoryStats
	for _, st := range s.stores {
		ps := st.Memory()
		agg.Events += ps.Events
		agg.SealedEvents += ps.SealedEvents
		agg.Runs += ps.Runs
		agg.HotBytes += ps.HotBytes
		agg.SealedBytes += ps.SealedBytes
	}
	return agg
}
