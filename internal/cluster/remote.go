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
// the network adds: the handshake, cell health, numbered applies, and
// the accounting that turns a missing cell into a wider answer.
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
// Exactly one router may write to a cluster. Its clock of each cell —
// what lets it accept a sub-batch without asking the cell — and its
// apply numbers are right only while it is the cells' one writer; a
// cell refuses a write that carries no number.
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
	// acknowledgement or a parked sub-batch overcounts — sound for
	// widening.
	events atomic.Int64
	// clock bounds the cell store's clock from above (float64 bits): the
	// HelloAck's, raised to each sub-batch's largest timestamp before the
	// sub-batch is sent. Written under amu.
	clock atomic.Uint64

	// amu is the apply mutex: held from numbering a sub-batch to its
	// reply, retries included, and over a re-handshake and what it
	// re-sends, so the cell sees this router's numbers in increasing
	// order. seq is the last number given out; parked holds, in number
	// order, the sub-batches of committed batches the cell has not
	// confirmed.
	amu    sync.Mutex
	seq    uint64
	parked []parkedApply
}

// parkedApply is one numbered sub-batch waiting for its cell to rejoin.
type parkedApply struct {
	seq    uint64
	events []core.Event
}

// maxProvable caps the sub-batch ValidateBatch accepts without an
// exchange: at no more than 29 bytes an event its frame stays far below
// a cell's 8 MiB request limit, so the cell cannot refuse it for size
// either. A larger one is validated by OpValidate, where a 413 applies
// nothing.
const maxProvable = 1 << 16

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

// markAlive publishes a successful handshake with a cell that holds
// events events. The router's view of the cell is refreshed first, and
// aliveSince is bumped before alive flips, so a query that started
// before the recovery (and may have missed the cell's terms) still sees
// aliveSince > its epoch and widens.
func (c *cell) markAlive(events int64) {
	c.events.Store(events)
	c.handshaked.Store(true)
	c.aliveSince.Store(c.epoch.Add(1))
	if !c.alive.Swap(true) {
		cRecoveries.Inc()
	}
}

// Probe runs one health pass: a readiness check on live cells, and a
// re-handshake (rejoin) on dead ones and on live ones a kept connection
// of which was found cut since their last handshake — such a cell may
// have restarted, and takes no write until it has shaken hands again.
// Exported so tests (and the router's stats surface) can drive health
// deterministically with the loop disabled.
func (rs *RemoteSet) Probe() {
	for _, c := range rs.cells {
		if c.alive.Load() {
			if err := c.readyz(); err != nil {
				c.markDead()
				continue
			}
			if !c.cut.Load() {
				continue
			}
		}
		c.rejoin(rs.man.LayoutHash)
	}
}

// rejoin shakes hands with the cell under its apply mutex and settles
// what is parked for it before the cell is published alive: sub-batches
// the cell holds (numbered at or below HelloAck.Applied) are dropped,
// the rest re-sent in number order. The router takes the cell's clock
// and event count as the ack states them — lower than it had when a
// cell without a log restarted empty — and numbers on above both its own
// last number and the cell's. A failed handshake or re-send leaves the
// rest parked and the cell dead for the next probe.
func (c *cell) rejoin(manifestHash uint64) {
	c.amu.Lock()
	defer c.amu.Unlock()
	ack, err := c.hello(manifestHash)
	if err != nil {
		if c.alive.Load() {
			c.markDead()
		}
		return
	}
	c.cut.Store(false)
	c.seq = max(c.seq, ack.Applied)
	c.clock.Store(math.Float64bits(ack.Clock))
	events := int64(ack.NumEvents)
	for len(c.parked) > 0 {
		pa := c.parked[0]
		if pa.seq > ack.Applied {
			c.raiseClock(pa.events)
			if err := c.apply(pa.seq, pa.events); err != nil {
				c.markDead()
				return
			}
			events += int64(len(pa.events))
		}
		c.parked = c.parked[1:]
	}
	c.parked = nil
	c.markAlive(events)
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

// WidenFor computes the sound widening for a query whose integration
// perimeter (core.Region.Perimeter) is the given cuts and which started
// at outage epoch since. Every affected cell owning a cut — a road, or a
// gateway's world edge — contributes its last-known event count: each
// event changes any boundary term by at most one, so the true answer
// lies within ±width of the degraded count. No cell can hold a world
// event off the gateways, so the perimeter names every cell whose hole
// could move the answer. A cell that never handshaked has no known
// bound and widens to MaxFloat64 (kept finite so the response still
// serializes to JSON). Also returns the number of cut roads owned by
// affected cells and the number of affected owning cells.
func (rs *RemoteSet) WidenFor(perimeter []core.CutRoad, since uint64) (width float64, unobservedCuts, affectedCells int) {
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
	lay, roads := rs.Layout(), planar.EdgeID(rs.World().NumRoads())
	hit := make([]bool, len(rs.cells))
	for _, cr := range perimeter {
		p := lay.OwnerOfEdge(cr.Road)
		if rs.cells[p].affected(since) {
			if cr.Road < roads {
				unobservedCuts++
			}
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

// ---------------------------------------------------------------------
// Writes: the member half of the Set's two-phase ingest (DESIGN.md
// §16.3).

// down refuses a write to a known-dead cell before anything is sent.
func (c *cell) down() error {
	if !c.alive.Load() {
		return fmt.Errorf("%w: cell %d is down", ErrUnavailable, c.cell)
	}
	return nil
}

// provable reports whether the cell cannot refuse sub: it is in time
// order from the router's clock of the cell on, so it goes back on no
// direction of the cell's, and small enough to fit a request. Routing
// already refused everything else a store refuses.
func (c *cell) provable(sub []core.Event) bool {
	if len(sub) > maxProvable || sub[0].T < math.Float64frombits(c.clock.Load()) {
		return false
	}
	for i := 1; i < len(sub); i++ {
		if sub[i].T < sub[i-1].T {
			return false
		}
	}
	return true
}

// raiseClock lifts the cell's clock to sub's largest timestamp. Callers
// hold amu.
func (c *cell) raiseClock(sub []core.Event) {
	hi := math.Float64frombits(c.clock.Load())
	for _, ev := range sub {
		hi = max(hi, ev.T)
	}
	c.clock.Store(math.Float64bits(hi))
}

// restarted handles a cell's 409 to a write: it has not shaken hands
// since it started, applied nothing, and takes no write until a probe
// has shaken hands with it again.
func (c *cell) restarted(err error) error {
	c.markDead()
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// ValidateBatch implements partition.Member. A known-dead cell fails
// phase 1, so a batch fails before anything applies. A sub-batch the
// cell cannot refuse (provable) is accepted with no exchange; anything
// else is an OpValidate scatter, retried like any read.
func (c *cell) ValidateBatch(sub []core.Event) error {
	if err := c.down(); err != nil {
		return err
	}
	if c.provable(sub) {
		return nil
	}
	_, err := c.scatter(wire.ScatterFrame{Op: wire.OpValidate, Events: sub, Tick: wire.DefaultTick})
	switch {
	case Status(err) == http.StatusConflict:
		return c.restarted(err)
	case errors.Is(err, ErrUnavailable):
		c.markDead()
	}
	return err
}

// RecordBatch implements partition.Member: the apply of a sub-batch the
// cell accepted in phase 1, under the cell's next number and with call's
// retries. A definitive refusal applied nothing and is passed through;
// so is a cell that restarted since its handshake (409), which is marked
// dead. Any other end — the retries spent without an answer, or a cell
// already dead, as when the Set asks again once the batch applied
// elsewhere — commits the batch: the sub-batch is parked, the cell
// marked dead, and rejoin completes it before the cell serves again.
// The error wraps ErrUnavailable and partition.ErrParked, so the Set
// never asks for a parked sub-batch again, and says the batch must not
// be sent again.
func (c *cell) RecordBatch(sub []core.Event) error {
	c.amu.Lock()
	defer c.amu.Unlock()
	c.seq++
	c.raiseClock(sub)
	c.events.Add(int64(len(sub)))
	err := c.down()
	if err == nil {
		err = c.apply(c.seq, sub)
		st := Status(err)
		switch {
		case err == nil:
			return nil
		case st >= 400 && st < 500:
			c.events.Add(-int64(len(sub)))
			if st == http.StatusConflict {
				return c.restarted(err)
			}
			return err
		}
	}
	c.parked = append(c.parked, parkedApply{seq: c.seq, events: slices.Clone(sub)})
	c.markDead()
	return fmt.Errorf("%w: cell %d did not confirm its share; the batch is committed, completes when the cell rejoins, and must not be sent again (%w: %v)", ErrUnavailable, c.cell, partition.ErrParked, err)
}

// NumEvents implements partition.Member with the tracked bound.
func (c *cell) NumEvents() int { return int(c.events.Load()) }
