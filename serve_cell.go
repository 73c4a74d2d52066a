package stq

// Cluster cell mode (DESIGN.md §16): a Server fronting one spatial
// partition behind a stqrouter. The cell serves the wire-native
// /v1/cell endpoint — the manifest handshake and the scatter ops the
// router's remote members dispatch — and takes /v1/ingest only as the
// router's numbered applies, refusing a misrouted batch before it can
// corrupt the cell's tracking forms.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/wire"
)

// CellConfig puts a Server in cluster cell mode (ServerConfig.Cell):
// it identifies which partition of the pinned layout this process
// owns. Build the layout by materializing the shared manifest
// (cluster.LoadManifest + Materialize) so every member agrees on the
// ownership function.
type CellConfig struct {
	// Index is this cell's partition index in [0, Cells).
	Index int
	// Cells is the manifest's cell count.
	Cells int
	// ManifestHash is the manifest's layout hash; Hello handshakes must
	// present it, so a router and cell built from divergent manifests
	// fail fast instead of disagreeing about ownership.
	ManifestHash uint64
	// Layout is the materialized partition layout.
	Layout *partition.Layout
}

// Validate rejects a structurally broken cell configuration; call it
// before handing the config to NewServer.
func (cc *CellConfig) Validate() error {
	if cc.Layout == nil {
		return fmt.Errorf("stq: cell config without a layout")
	}
	if cc.Cells != cc.Layout.Cells {
		return fmt.Errorf("stq: cell config cell count %d does not match layout %d", cc.Cells, cc.Layout.Cells)
	}
	if cc.Index < 0 || cc.Index >= cc.Cells {
		return fmt.Errorf("stq: cell index %d out of [0, %d)", cc.Index, cc.Cells)
	}
	return nil
}

// checkRoad bounds-checks a road ID against the layout before any
// slice indexing — scatter frames come off the network.
func (cc *CellConfig) checkRoad(road planar.EdgeID) error {
	if road < 0 || int(road) >= len(cc.Layout.CellOfRoad) {
		return fmt.Errorf("road %d out of range", road)
	}
	return nil
}

// checkJunction bounds-checks a junction ID against the layout.
func (cc *CellConfig) checkJunction(g planar.NodeID) error {
	if g < 0 || int(g) >= len(cc.Layout.CellOfJunction) {
		return fmt.Errorf("junction %d out of range", g)
	}
	return nil
}

// checkOwnership verifies that every event of an ingest batch belongs
// to this cell's partition. IDs are range-checked before the layout is
// indexed: the batch came off the network and a wild ID must yield a
// 400, not a panic. An Enter or Leave off the gateways is refused in
// the store's words before its owner is asked, so it never reads as a
// misroute.
func (s *Server) checkOwnership(events []Event) error {
	cc := s.cfg.Cell
	for i, ev := range events {
		switch ev.Kind {
		case EventMove:
			if err := cc.checkRoad(ev.Road); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			if own := cc.Layout.CellOfRoad[ev.Road]; own != cc.Index {
				return fmt.Errorf("event %d: road %d belongs to cell %d, not cell %d", i, ev.Road, own, cc.Index)
			}
		case EventEnter, EventLeave:
			if err := cc.checkJunction(ev.Gateway); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			if !s.cell.World().IsGateway(ev.Gateway) {
				return fmt.Errorf("core: batch event %d: junction %d is not a gateway", i, ev.Gateway)
			}
			if own := cc.Layout.CellOfJunction[ev.Gateway]; own != cc.Index {
				return fmt.Errorf("event %d: gateway %d belongs to cell %d, not cell %d", i, ev.Gateway, own, cc.Index)
			}
		default:
			return fmt.Errorf("event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// checkEdge checks that a tracked edge of the closed graph — a road or
// a junction's world edge — is in range, that node n is one of its two
// ends, and, for a world edge, that the junction is a gateway (no other
// junction has one) and that this cell owns it: another cell's world
// edge is a misroute, as a misrouted ingest event is. The
// kernels read a direction off `n == head`, so a wild n would not fail:
// it would be answered as the other end, with the sign of its share
// flipped.
func (s *Server) checkEdge(edge planar.EdgeID, n planar.NodeID) error {
	w, cc := s.cell.World(), s.cfg.Cell
	if edge < 0 || int(edge) >= w.NumTrackedEdges() {
		return fmt.Errorf("road %d out of range", edge)
	}
	tail, head := w.TrackedEnds(edge)
	if n != tail && n != head {
		return fmt.Errorf("cut road %d: junction %d is not an endpoint", edge, n)
	}
	if tail == w.Ext() {
		if !w.IsGateway(head) {
			return fmt.Errorf("cut road %d: junction %d is not a gateway", edge, head)
		}
		if own := cc.Layout.CellOfJunction[head]; own != cc.Index {
			return fmt.Errorf("cut road %d: the world edge of junction %d belongs to cell %d, not cell %d", edge, head, own, cc.Index)
		}
	}
	return nil
}

// checkScatter checks every ID a scatter frame carries before anything
// indexes by it: every cut an edge in range with its inside junction
// (OpRoadCrossings' toward node) one of its ends. ★v_ext is a legal
// toward — exits are counted toward it — and never a legal inside.
func (s *Server) checkScatter(f wire.ScatterFrame) error {
	ext := s.cell.World().Ext()
	for _, cr := range f.Cuts {
		if cr.Inside == ext {
			return fmt.Errorf("cut road %d: ★v_ext is not inside any region", cr.Road)
		}
		if err := s.checkEdge(cr.Road, cr.Inside); err != nil {
			return err
		}
	}
	if f.Op == wire.OpRoadCrossings {
		return s.checkEdge(f.Road, f.Toward)
	}
	return nil
}

// errNotFromRouter refuses a write a cell did not get from its router:
// a /v1/ingest without the router's apply number, or any write before a
// router has shaken hands with this cell since it started — the
// router's view of the cell (clock, count, numbers) must be renewed
// first. The serving layer maps it to 409.
var errNotFromRouter = errors.New("stq: a cell takes writes only from its router: numbered, after a handshake since the cell started")

// errEmptyBatch refuses an ingest request without events.
var errEmptyBatch = errors.New("empty event batch")

// ingestNumbered is /v1/ingest in cell mode: one sub-batch the router
// numbered N (?seq=N, the body any ingest carries), applied outside the
// group-commit batcher by System.recordSeq. A number the cell already
// holds is acknowledged and nothing is applied, so the router may send
// an apply again after a lost acknowledgement (DESIGN.md §16.3).
func (s *Server) ingestNumbered(w http.ResponseWriter, r *http.Request, c codec) {
	v, ok := strings.CutPrefix(r.URL.RawQuery, "seq=")
	seq, err := strconv.ParseUint(v, 10, 64)
	if !ok || err != nil || seq == 0 || !s.greeted.Load() {
		s.fail(w, c, errNotFromRouter, http.StatusConflict)
		return
	}
	events, free, err := c.readIngest(body(r))
	defer free()
	if err == nil && len(events) == 0 {
		err = errEmptyBatch
	}
	var dup bool
	if err == nil {
		dup, err = s.sys.recordSeq(seq, events, func() error { return s.checkOwnership(events) })
	}
	if err != nil {
		s.fail(w, c, err, http.StatusBadRequest)
		return
	}
	if !dup {
		s.ingestRequests.Add(1)
		s.ingestEvents.Add(uint64(len(events)))
		srvIngestEvents.AddInt(len(events))
	}
	write(w, c, http.StatusOK, c.ingested(len(events)))
}

// handleCell is the wire-native cluster endpoint: a Hello handshake or
// one scatter op per request, always in the wire codec whatever
// Content-Type the request carried. Registered only in cell mode. It
// shares the admission gate with queries and ingest — a router
// scattering into an overloaded cell gets 429 and backs off like any
// other client — and is deliberately NOT on the drain allowlist: a
// draining cell answers 503, the router marks it dead, and queries
// degrade instead of hanging on a disappearing process.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	cc := s.cfg.Cell
	c := wireCodec{}
	release, ok := s.admit(w, r, c)
	if !ok {
		return
	}
	defer release()
	srvWireRequests.Inc()
	d := wire.GetDecoder()
	defer wire.PutDecoder(d)
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	kind, payload, err := d.ReadFrame(body(r))
	if err != nil {
		s.fail(w, c, err, http.StatusBadRequest)
		return
	}
	switch kind {
	case wire.KindHello:
		hf, err := wire.DecodeHello(payload)
		if err != nil {
			s.fail(w, c, err, http.StatusBadRequest)
			return
		}
		if hf.ManifestHash != cc.ManifestHash {
			refuse(w, c, http.StatusConflict, fmt.Sprintf("manifest hash %#016x does not match this cell's %#016x", hf.ManifestHash, cc.ManifestHash))
			return
		}
		if hf.Cell != cc.Index {
			refuse(w, c, http.StatusConflict, fmt.Sprintf("handshake for cell %d reached cell %d", hf.Cell, cc.Index))
			return
		}
		s.greeted.Store(true)
		write(w, c, http.StatusOK, enc.EncodeHelloAck(wire.HelloAckFrame{
			Cell:      cc.Index,
			Clock:     s.cell.Clock(),
			NumEvents: s.cell.NumEvents(),
			Applied:   s.sys.appliedNumber(),
		}))
	case wire.KindScatter:
		sf, err := d.DecodeScatter(payload)
		if err == nil {
			err = s.checkScatter(sf)
		}
		var pf wire.PartialFrame
		steps := scatterSteps.Get().(*[]core.SignedEvent)
		defer scatterSteps.Put(steps)
		if err == nil {
			pf, err = s.execScatter(sf, steps)
		}
		if err != nil {
			s.fail(w, c, err, http.StatusBadRequest)
			return
		}
		write(w, c, http.StatusOK, enc.EncodePartial(pf))
	default:
		s.fail(w, c, fmt.Errorf("wire: expected hello or scatter frame, got kind %d", kind), http.StatusBadRequest)
	}
}

// scatterSteps pools the buffers static scatters are answered into; the
// encoded partial frame holds a copy of the steps.
var scatterSteps = sync.Pool{New: func() any { return new([]core.SignedEvent) }}

// execScatter runs one scatter op against the cell's store; a static
// one answers its steps in *steps. The cell is a plain single-store
// System over the full world (NewServer checks), so every term is
// computed by exactly the code a single-process engine would run — the
// foundation of the router's bit-identity guarantee.
func (s *Server) execScatter(f wire.ScatterFrame, steps *[]core.SignedEvent) (wire.PartialFrame, error) {
	st := s.cell
	pf := wire.PartialFrame{Op: f.Op}
	switch f.Op {
	case wire.OpCountCuts:
		pf.Value = st.CountCuts(f.Cuts, f.T1)
	case wire.OpCutFlow:
		pf.Value = st.CutFlow(f.Cuts, f.T1, f.T2)
	case wire.OpStaticSteps:
		pf.Value, *steps = st.StaticSteps(f.Cuts, f.T1, f.T2, (*steps)[:0])
		pf.Events = *steps
	case wire.OpRoadCrossings:
		pf.Value = st.RoadCrossings(f.Road, f.Toward, f.T1)
	case wire.OpValidate:
		// Phase 1 of the router's two-phase ingest: check the sub-batch
		// against this cell's current per-form state without applying
		// anything. Idempotent, so the router may retry it.
		if !s.greeted.Load() {
			return pf, errNotFromRouter
		}
		if err := s.checkOwnership(f.Events); err != nil {
			return pf, err
		}
		if err := st.ValidateBatch(f.Events); err != nil {
			return pf, err
		}
	default:
		return pf, fmt.Errorf("wire: unknown scatter op %d", f.Op)
	}
	return pf, nil
}
