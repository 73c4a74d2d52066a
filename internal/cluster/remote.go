package cluster

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/wire"
)

// RemoteSet is a partition.Set whose members are N stqd cell processes
// reached over the binary wire protocol. Owner routing, scatter-gather
// and the two-phase ingest are the embedded Set's (DESIGN.md §14), so a
// router process runs the *unmodified* engine over it — that is what
// makes cluster answers bit-identical to the single-process partitioned
// engine. Cells answer only what adds up across a partition: integer
// partial sums and, for StaticCount, the step function of their share
// of the perimeter (per-cell minima would not merge: a running minimum
// does not distribute over partition sums). What RemoteSet adds is what
// the network adds: the handshake, cell health, and the accounting that
// turns a missing cell into a wider answer.
//
// # Outage accounting
//
// Every cell death and recovery bumps a global outage epoch. A query
// captures the epoch before evaluating; afterwards, any cell that is
// dead, failed at-or-after that epoch, or recovered after it may have
// contributed zero (or stale) terms, and WidenFor converts that into a
// sound widening of the answer interval: each affected cell's
// last-known event count bounds how far any boundary term can be off.
//
// # Single-router invariant
//
// Exactly one router may write to a cluster. The two-phase cross-cell
// ingest validates against cell state that only stays stable because
// this router's routing lock is the only write serialization point.
// Queries are safe from any number of routers.
type RemoteSet struct {
	*partition.Set
	man   *Manifest
	cells []*cell

	// epoch is the global outage clock; monotone, bumped on every death
	// and recovery.
	epoch atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// cell is the remote partition.Member: the router's client for one cell
// plus its view of that cell's health and contribution. Every store
// call is one scatter frame; a read the cell cannot answer yields zero
// terms and records a failure, and WidenFor accounts for the hole.
type cell struct {
	*cellClient
	// epoch is the owning RemoteSet's outage clock.
	epoch *atomic.Uint64

	// alive gates all RPC dispatch to the cell.
	alive atomic.Bool
	// handshaked records whether a Hello ever succeeded; a cell that
	// never handshaked has no known event count, so its widening
	// contribution is unbounded.
	handshaked atomic.Bool
	// aliveSince is the epoch at which the cell last recovered; lastFail
	// the epoch of its last failure. Both only grow. A query started at
	// epoch E treats the cell as suspect when !alive, aliveSince > E, or
	// lastFail >= E — monotone in time for fixed E, so racing checks can
	// only get more conservative.
	aliveSince atomic.Uint64
	lastFail   atomic.Uint64
	// events is the upper bound on the cell's event count: the handshake
	// count plus every event routed since. It is bumped before the send
	// and taken back only when the cell definitively refused, so a lost
	// acknowledgement overcounts — sound for widening.
	events atomic.Int64

	// worldJs is the router's own copy of the cell's world-junction
	// set: every HelloAck's set ∪ the gateways of every batch this router
	// applied — the router sees every event it routes, so it never asks.
	// An immutable ascending slice, replaced by a longer one under wjMu;
	// like the cell's own it only grows.
	wjMu    sync.Mutex
	worldJs atomic.Pointer[[]planar.NodeID]
}

// Dial connects a router to the cluster's cells. addrs[i] is cell i's
// base address ("host:port" or an http:// URL); the count must match the
// manifest. Every cell gets one synchronous handshake attempt —
// unreachable cells start dead and the health loop keeps trying, so a
// router boots (degraded) in front of a partially-up cluster.
func Dial(man *Manifest, addrs []string, opt Options) (*RemoteSet, error) {
	w, lay, err := man.Materialize()
	if err != nil {
		return nil, err
	}
	if len(addrs) != man.Cells {
		return nil, fmt.Errorf("cluster: %d cell addresses for a %d-cell manifest", len(addrs), man.Cells)
	}
	opt = opt.withDefaults()
	rs := &RemoteSet{
		man:   man,
		cells: make([]*cell, man.Cells),
		stop:  make(chan struct{}),
	}
	members := make([]partition.Member, man.Cells)
	for i, a := range addrs {
		cc, err := newCellClient(i, a, opt)
		if err != nil {
			return nil, err
		}
		rs.cells[i] = &cell{cellClient: cc, epoch: &rs.epoch}
		members[i] = rs.cells[i]
	}
	rs.Set = partition.NewSetOver(w, lay, members)
	rs.Probe()
	if opt.HealthInterval > 0 {
		rs.wg.Add(1)
		go rs.healthLoop(opt.HealthInterval)
	}
	return rs, nil
}

// Close stops the health loop and closes every kept connection. It sends
// the cells nothing.
func (rs *RemoteSet) Close() error {
	rs.stopOnce.Do(func() { close(rs.stop) })
	rs.wg.Wait()
	for _, c := range rs.cells {
		c.dropIdle()
	}
	return nil
}

// Manifest returns the pinned cluster manifest.
func (rs *RemoteSet) Manifest() *Manifest { return rs.man }

// NumCells returns the cell count.
func (rs *RemoteSet) NumCells() int { return len(rs.cells) }

// CellAlive reports whether cell p is currently considered live.
func (rs *RemoteSet) CellAlive(p int) bool { return rs.cells[p].alive.Load() }

// SetHistoryConfig rejects router-side history configuration: cells own
// their storage, history and memory, and the router reports nothing
// about them rather than guessing.
func (rs *RemoteSet) SetHistoryConfig(core.HistoryConfig) error {
	return errors.New("cluster: history tiering is configured per cell, not on the router")
}

// ---------------------------------------------------------------------
// Health: death, recovery, and the outage epoch.

// markDead records a failure that leaves the cell's state unknown
// (unreachable, timed out, a reply that breaks the protocol) and stops
// dispatching to it until a probe handshakes again. Order matters:
// lastFail is published before alive flips, so a query that starts in
// between (and may have received zero terms from the failing cell) still
// sees lastFail >= its epoch and widens. The kept connections go with it:
// the probe that revives the cell dials afresh.
func (c *cell) markDead() {
	c.lastFail.Store(c.epoch.Add(1))
	if c.alive.CompareAndSwap(true, false) {
		cDeaths.Inc()
	}
	c.dropIdle()
}

// markRefused records a definitive refusal: the cell answered, so it
// stays alive and is asked again, but the refused call left a hole.
// lastFail moves to a fresh epoch, so every query in flight sees
// lastFail >= its own epoch and widens; the epoch then moves once more,
// so a query that starts afterwards — and asks the cell itself — does
// not.
func (c *cell) markRefused() {
	c.lastFail.Store(c.epoch.Add(1))
	c.epoch.Add(1)
}

// markAlive publishes a successful handshake. The router's view of the
// cell is refreshed first, and aliveSince is bumped before alive flips,
// so a query that started before the recovery (and may have missed the
// cell's terms) still sees aliveSince > its epoch and widens.
func (c *cell) markAlive(ack wire.HelloAckFrame) {
	c.addWorldJunctions(ack.WorldJunctions)
	c.events.Store(int64(ack.NumEvents))
	c.handshaked.Store(true)
	c.aliveSince.Store(c.epoch.Add(1))
	c.alive.Store(true)
	cRecoveries.Inc()
}

// Probe runs one health pass: a readiness check on live cells, a full
// re-handshake on dead ones. Exported so tests (and the router's stats
// surface) can drive health deterministically with the loop disabled.
func (rs *RemoteSet) Probe() {
	for _, c := range rs.cells {
		if c.alive.Load() {
			if err := c.readyz(); err != nil {
				c.markDead()
			}
			continue
		}
		if ack, err := c.hello(rs.man.LayoutHash); err == nil {
			c.markAlive(ack)
		}
	}
}

func (rs *RemoteSet) healthLoop(interval time.Duration) {
	defer rs.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rs.stop:
			return
		case <-t.C:
			rs.Probe()
		}
	}
}

// OutageEpoch returns the current outage epoch. Capture it before
// evaluating a query; pass it to WidenFor afterwards.
func (rs *RemoteSet) OutageEpoch() uint64 { return rs.epoch.Load() }

// affected reports whether the cell's contribution to a query started
// at epoch since may be missing or stale. Monotone in time for fixed
// since: once true it stays true, so racing per-term checks err only
// toward widening.
func (c *cell) affected(since uint64) bool {
	return !c.alive.Load() || c.aliveSince.Load() > since || c.lastFail.Load() >= since
}

// WidenFor computes the sound widening for a query whose perimeter is
// the given cut roads around the given region junctions and which
// started at outage epoch since. Every affected owning cell contributes its
// last-known event count — each event changes any boundary term by at
// most one, so the true answer lies within ±width of the degraded
// count. A cell that never handshaked has no known bound and widens to
// MaxFloat64 (kept finite so the response still serializes to JSON).
// Also returns the number of region cut roads owned by affected cells
// and the number of affected owning cells.
func (rs *RemoteSet) WidenFor(cuts []core.CutRoad, junctions []planar.NodeID, since uint64) (width float64, unobservedCuts, affectedCells int) {
	anyAffected := false
	for _, c := range rs.cells {
		if c.affected(since) {
			anyAffected = true
			break
		}
	}
	if !anyAffected {
		return 0, 0, 0
	}
	lay := rs.Layout()
	hit := make([]bool, len(rs.cells))
	for _, cr := range cuts {
		p := lay.OwnerOfRoad(cr.Road)
		if rs.cells[p].affected(since) {
			unobservedCuts++
			hit[p] = true
		}
	}
	// All region junctions, not just the known world ones: an affected
	// cell may hold events this router never got an acknowledgement for,
	// so any junction it owns could be an unseen gateway.
	for _, j := range junctions {
		p := lay.OwnerOfJunction(j)
		if !hit[p] && rs.cells[p].affected(since) {
			hit[p] = true
		}
	}
	unbounded := false
	for p, h := range hit {
		if !h {
			continue
		}
		affectedCells++
		c := rs.cells[p]
		if !c.handshaked.Load() {
			unbounded = true
			continue
		}
		width += float64(c.events.Load())
	}
	if unbounded {
		width = math.MaxFloat64
	}
	return width, unobservedCuts, affectedCells
}

// ---------------------------------------------------------------------
// Reads: one scatter frame per call.

// ask runs one scatter op against the cell. A dead cell, a refusal, or
// any failure past the retry budget yields ok=false and the zero frame —
// the query proceeds with zero terms from the cell and WidenFor accounts
// for them. Only a failure that leaves the cell's state unknown marks it
// dead: a definitive refusal (a 4xx other than 429 — say, an op this
// cell's version does not know) came from a live cell.
func (c *cell) ask(f wire.ScatterFrame) (wire.PartialFrame, bool) {
	if !c.alive.Load() {
		return wire.PartialFrame{}, false
	}
	pf, err := c.scatter(f)
	if err != nil {
		if st := Status(err); st >= 400 && st < 500 && st != http.StatusTooManyRequests {
			c.markRefused()
		} else {
			c.markDead()
		}
		return wire.PartialFrame{}, false
	}
	return pf, true
}

// value is ask for the ops that answer with a single count.
func (c *cell) value(f wire.ScatterFrame) float64 {
	pf, _ := c.ask(f)
	return pf.Value
}

// RoadCrossings implements core.Counter.
func (c *cell) RoadCrossings(edge planar.EdgeID, toward planar.NodeID, t float64) float64 {
	return c.value(wire.ScatterFrame{Op: wire.OpRoadCrossings, Road: edge, Toward: toward, T1: t})
}

// CountCuts implements core.Counter.
func (c *cell) CountCuts(cuts []core.CutRoad, t float64) float64 {
	return c.value(wire.ScatterFrame{Op: wire.OpCountCuts, Cuts: cuts, T1: t})
}

// CutFlow implements core.Counter.
func (c *cell) CutFlow(cuts []core.CutRoad, t1, t2 float64) float64 {
	return c.value(wire.ScatterFrame{Op: wire.OpCutFlow, Cuts: cuts, T1: t1, T2: t2})
}

// StaticSteps implements core.StepLister: the whole share in one frame.
// A reply whose steps are not finite, not strictly increasing in time,
// outside the window (t1, t2], or carry a zero delta is a protocol
// breach: the cell is marked dead and contributes nothing.
func (c *cell) StaticSteps(cuts []core.CutRoad, t1, t2 float64, dst []core.SignedEvent) (float64, []core.SignedEvent) {
	pf, ok := c.ask(wire.ScatterFrame{Op: wire.OpStaticSteps, Cuts: cuts, T1: t1, T2: t2})
	if !ok {
		return 0, dst
	}
	prev := math.Inf(-1)
	for _, st := range pf.Events {
		if !(st.T > prev) || math.IsInf(st.T, 1) || st.T <= t1 || st.T > t2 || st.Delta == 0 {
			c.markDead()
			return 0, dst
		}
		prev = st.T
	}
	return pf.Value, append(dst, pf.Events...)
}

// WorldJunctions implements core.Counter from the router's own copy:
// one atomic load, never an exchange. Callers must not modify the
// returned slice.
func (c *cell) WorldJunctions() []planar.NodeID {
	if js := c.worldJs.Load(); js != nil {
		return *js
	}
	return nil
}

// addWorldJunctions grows the set by the junctions of js it does not
// hold yet, and publishes nothing when it holds them all.
func (c *cell) addWorldJunctions(js []planar.NodeID) {
	c.wjMu.Lock()
	defer c.wjMu.Unlock()
	cur := c.WorldJunctions()
	next := append(slices.Clone(cur), js...)
	slices.Sort(next)
	if next = slices.Compact(next); len(next) > len(cur) {
		c.worldJs.Store(&next)
	}
}

// ---------------------------------------------------------------------
// Writes: the member half of the Set's two-phase ingest.

// down refuses a write to a known-dead cell before anything is sent.
func (c *cell) down() error {
	if !c.alive.Load() {
		return fmt.Errorf("%w: cell %d is down", ErrUnavailable, c.cell)
	}
	return nil
}

// ValidateBatch implements partition.Member with OpValidate: a known-dead
// cell fails phase 1, so a cross-cell batch fails before anything
// applies. The op is idempotent, so the client retries it.
func (c *cell) ValidateBatch(sub []core.Event) error {
	if err := c.down(); err != nil {
		return err
	}
	_, err := c.scatter(wire.ScatterFrame{Op: wire.OpValidate, Events: sub, Tick: wire.DefaultTick})
	if errors.Is(err, ErrUnavailable) {
		c.markDead()
	}
	return err
}

// RecordBatch implements partition.Member: exactly one attempt (see
// cellClient.ingest).
func (c *cell) RecordBatch(sub []core.Event) error {
	if err := c.down(); err != nil {
		return err
	}
	c.events.Add(int64(len(sub)))
	if err := c.ingest(sub); err != nil {
		if errors.Is(err, ErrUnavailable) {
			// Ambiguous: the cell may have applied the batch, so the
			// bound keeps it.
			c.markDead()
		} else {
			// A definitive refusal applied nothing.
			c.events.Add(-int64(len(sub)))
		}
		return err
	}
	known := c.WorldJunctions()
	var unseen []planar.NodeID
	for _, ev := range sub {
		if ev.Kind != core.EventMove {
			if _, ok := slices.BinarySearch(known, ev.Gateway); !ok {
				unseen = append(unseen, ev.Gateway)
			}
		}
	}
	if unseen != nil {
		c.addWorldJunctions(unseen)
	}
	return nil
}

// NumEvents implements partition.Member with the tracked bound.
func (c *cell) NumEvents() int { return int(c.events.Load()) }
