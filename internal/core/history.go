package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/planar"
)

// This file implements the tiered event history above the segment
// encoding (segment.go): per-direction lists of immutable sealed
// segments, the seal machinery that freezes cold hot-tier prefixes, and
// the compact wire form checkpoints carry (DESIGN.md §12).

// Observability: seal activity, sealed-tier volume, the block encodings
// sealing chose, and blocks the read path found undecodable.
var (
	mSeals         = obs.Default.Counter("core.history_seals")
	mSealedEvents  = obs.Default.Counter("core.history_sealed_events")
	mSealSkipped   = obs.Default.Counter("core.history_seal_lossy_fallbacks")
	mCorruptBlocks = obs.Default.Counter("core.history_corrupt_blocks")
	mBlockModes    = [...]*obs.Counter{
		blockEF:     obs.Default.Counter("core.history_blocks_ef"),
		blockPacked: obs.Default.Counter("core.history_blocks_packed"),
		blockVarint: obs.Default.Counter("core.history_blocks_varint"),
		blockWidth0: obs.Default.Counter("core.history_blocks_width0"),
	}
)

// Indices into mBlockModes.
const (
	blockEF = iota
	blockPacked
	blockVarint
	blockWidth0
)

// history is the immutable sealed prefix of one tracking-form
// direction: segments in time order, each covering a contiguous index
// range [seg.startIdx, seg.startIdx+seg.n). A history value is never
// mutated after publication; sealing replaces it wholesale (extend), so
// histories are shared freely across tracker snapshots, store
// snapshots, and checkpoints.
type history struct {
	segs        []*segment
	n           int
	first, last float64
}

// hlen returns the number of sealed events (nil-safe).
func (h *history) hlen() int {
	if h == nil {
		return 0
	}
	return h.n
}

// hlast returns the last sealed timestamp (nil-safe; ok=false when
// empty).
func (h *history) hlast() (float64, bool) {
	if h == nil || h.n == 0 {
		return 0, false
	}
	return h.last, true
}

// extend returns a new history with g appended. g.startIdx must equal
// the receiver's event count.
func (h *history) extend(g *segment) *history {
	nh := &history{last: g.last}
	if h == nil || h.n == 0 {
		nh.segs = []*segment{g}
		nh.n = g.n
		nh.first = g.first
		return nh
	}
	nh.segs = append(append(make([]*segment, 0, len(h.segs)+1), h.segs...), g)
	nh.n = h.n + g.n
	nh.first = h.first
	return nh
}

// countLE returns the number of sealed events with timestamp ≤ t
// (nil-safe): one binary search over segments, one over the matching
// segment's skip index, one partial block decode.
func (h *history) countLE(t float64) int {
	if h == nil || h.n == 0 || t < h.first {
		return 0
	}
	if t >= h.last {
		return h.n
	}
	g := h.segs[h.segOf(t, 0)]
	return g.startIdx + g.countLE(t)
}

// segOf returns the index of the last segment, from segs[from] on, that
// starts at or before t; from itself when no later one does.
func (h *history) segOf(t float64, from int) int {
	return from + sort.Search(len(h.segs)-from-1, func(i int) bool { return h.segs[from+1+i].first > t })
}

// countIn returns countLE(t2) − countLE(t1) (nil-safe): t2's segment is
// searched from t1's on, and one holding both answers in one descent. A
// pair outside [first, last) — NaN, inverted — takes the plain counts.
func (h *history) countIn(t1, t2 float64) int {
	if h == nil || !(h.first <= t1 && t1 <= t2 && t2 < h.last) {
		return h.countLE(t2) - h.countLE(t1)
	}
	k := h.segOf(t1, 0)
	g, g2 := h.segs[k], h.segs[h.segOf(t2, k)]
	if g2 == g {
		return g.countIn(t1, t2)
	}
	return g2.startIdx + g2.countLE(t2) - g.startIdx - g.countLE(t1)
}

// window is segment.window over the whole sealed prefix (nil-safe): the
// count of sealed events ≤ t1 — exactly countLE(t1) — and the sealed
// timestamps in (t1, t2] appended to dst, from one search to the
// segment holding t1 and one walk forward from there.
func (h *history) window(t1, t2 float64, dst []float64) (le int, out []float64, more bool) {
	if h == nil || h.n == 0 {
		return 0, dst, true
	}
	if t1 >= h.last || math.IsNaN(t1) {
		return h.n, dst, true
	}
	k := 0
	if t1 >= h.first {
		k = h.segOf(t1, 0)
	}
	// Every segment after k starts past t1, so only k adds to the count.
	le = h.segs[k].startIdx
	for _, g := range h.segs[k:] {
		var n int
		n, dst, more = g.window(t1, t2, dst)
		le += n
		if !more {
			return le, dst, false
		}
	}
	return le, dst, true
}

// appendTimes materializes every sealed timestamp onto dst, in order.
func (h *history) appendTimes(dst []float64) []float64 {
	if h == nil {
		return dst
	}
	for _, g := range h.segs {
		dst = g.appendTimes(dst)
	}
	return dst
}

// memBytes is the resident footprint of the sealed tier (nil-safe).
func (h *history) memBytes() int {
	if h == nil {
		return 0
	}
	total := 48 // history struct + segs slice header
	for _, g := range h.segs {
		total += g.memBytes() + 8 // slice entry
	}
	return total
}

// validate fully decodes every segment and checks the invariants the
// read path depends on: index continuity, per-segment structure, and
// global time order. Returns the last sealed timestamp.
func (h *history) validate() (float64, error) {
	if h == nil {
		return math.Inf(-1), nil
	}
	if len(h.segs) == 0 || h.n == 0 {
		return 0, fmt.Errorf("core: sealed history with no segments")
	}
	idx := 0
	prev := math.Inf(-1)
	for i, g := range h.segs {
		if g.startIdx != idx {
			return 0, fmt.Errorf("core: sealed segment %d starts at index %d, want %d", i, g.startIdx, idx)
		}
		last, err := g.validate(prev)
		if err != nil {
			return 0, err
		}
		prev = last
		idx += g.n
	}
	if idx != h.n {
		return 0, fmt.Errorf("core: sealed history claims %d events, segments hold %d", h.n, idx)
	}
	if h.first != h.segs[0].first || h.last != prev {
		return 0, fmt.Errorf("core: sealed history first/last metadata mismatch")
	}
	return prev, nil
}

// SealedHistory is the exported, immutable handle of one direction's
// sealed prefix, as carried by StoreSnapshot and checkpoint images.
// Holders share the underlying segments; nothing is ever copied or
// mutated.
type SealedHistory struct {
	h *history
}

// NumEvents returns the number of sealed events.
func (sh *SealedHistory) NumEvents() int {
	if sh == nil {
		return 0
	}
	return sh.h.hlen()
}

// NumSegments returns the number of immutable segments.
func (sh *SealedHistory) NumSegments() int {
	if sh == nil || sh.h == nil {
		return 0
	}
	return len(sh.h.segs)
}

// Wire format of a sealed history (all integers little-endian):
//
//	u32 n_segments
//	per segment:
//	  u8  kind (0 = tick-quantized blocks, 1 = raw float64)
//	  u64 n_events
//	  f64 first | f64 last
//	  kind 0: f64 tick | u32 n_blocks
//	          | { i64 start_tick | u32 payload_off }…
//	          | u32 data_len | data bytes
//	  kind 1: n_events × f64bits
//
// The block payload begins with one mode byte (bit width, 0xFF for
// varint deltas, 0xFE for Elias–Fano offsets); see segment.go. The byte
// is self-describing, so a new mode is not a new format version. Decode
// rebuilds the derived fields (startIdx) and performs structural bounds
// validation; RestoreSnapshot additionally runs the full semantic
// validation (validate).

const (
	sealedKindBlocks = 0
	sealedKindRaw    = 1
)

// WireSize returns the exact AppendWire output size in bytes.
func (sh *SealedHistory) WireSize() int {
	size := 4
	if sh == nil || sh.h == nil {
		return size
	}
	for _, g := range sh.h.segs {
		size += 1 + 8 + 16
		if g.raw != nil {
			size += 8 * len(g.raw)
		} else {
			size += 8 + 4 + 12*len(g.blocks) + 4 + len(g.data)
		}
	}
	return size
}

// AppendWire appends the compact wire form of the sealed history.
func (sh *SealedHistory) AppendWire(dst []byte) []byte {
	if sh == nil || sh.h == nil {
		return appendWireU32(dst, 0)
	}
	dst = appendWireU32(dst, uint32(len(sh.h.segs)))
	for _, g := range sh.h.segs {
		if g.raw != nil {
			dst = append(dst, sealedKindRaw)
		} else {
			dst = append(dst, sealedKindBlocks)
		}
		dst = appendWireU64(dst, uint64(g.n))
		dst = appendWireU64(dst, math.Float64bits(g.first))
		dst = appendWireU64(dst, math.Float64bits(g.last))
		if g.raw != nil {
			for _, t := range g.raw {
				dst = appendWireU64(dst, math.Float64bits(t))
			}
			continue
		}
		dst = appendWireU64(dst, math.Float64bits(g.tick))
		dst = appendWireU32(dst, uint32(len(g.blocks)))
		for _, b := range g.blocks {
			dst = appendWireU64(dst, uint64(b.startTick))
			dst = appendWireU32(dst, b.off)
		}
		dst = appendWireU32(dst, uint32(len(g.data)))
		dst = append(dst, g.data...)
	}
	return dst
}

func appendWireU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendWireU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// wireReader is a bounds-checked little-endian cursor; the first
// overrun latches err.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("core: sealed history wire truncated")
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *wireReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// DecodeSealedHistory parses one sealed history from the front of data,
// returning the bytes consumed. Structural bounds are validated here
// (segment counts, block offsets, payload sizes); callers installing
// the result into a store must run the semantic validation too
// (RestoreSnapshot does).
func DecodeSealedHistory(data []byte) (*SealedHistory, int, error) {
	r := &wireReader{b: data}
	nsegs := int(r.u32())
	if r.err != nil {
		return nil, 0, r.err
	}
	if nsegs == 0 {
		return nil, r.off, nil
	}
	if nsegs > len(data) {
		return nil, 0, fmt.Errorf("core: sealed history claims %d segments in %d bytes", nsegs, len(data))
	}
	h := &history{}
	for i := 0; i < nsegs; i++ {
		kind := r.u8()
		n := int(r.u64())
		first := math.Float64frombits(r.u64())
		last := math.Float64frombits(r.u64())
		if r.err != nil {
			return nil, 0, r.err
		}
		if n <= 0 {
			return nil, 0, fmt.Errorf("core: sealed segment %d claims %d events", i, n)
		}
		g := &segment{startIdx: h.n, n: n, first: first, last: last}
		switch kind {
		case sealedKindRaw:
			// Bound n before multiplying: 8·n wraps for a declared n ≥ 2⁶¹.
			if n > (len(data)-r.off)/8 {
				return nil, 0, fmt.Errorf("core: sealed segment %d claims %d raw events in %d bytes", i, n, len(data)-r.off)
			}
			raw := r.take(8 * n)
			if raw == nil {
				return nil, 0, r.err
			}
			g.raw = make([]float64, n)
			for j := range g.raw {
				g.raw[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		case sealedKindBlocks:
			g.tick = math.Float64frombits(r.u64())
			nblocks := int(r.u32())
			if r.err != nil {
				return nil, 0, r.err
			}
			if want := (n + segBlockLen - 1) / segBlockLen; nblocks != want {
				return nil, 0, fmt.Errorf("core: sealed segment %d has %d blocks, want %d", i, nblocks, want)
			}
			// Each block's index entry is 12 bytes: bound the count by the
			// bytes left before sizing the index to it.
			if nblocks > (len(data)-r.off)/12 {
				return nil, 0, fmt.Errorf("core: sealed segment %d claims %d blocks in %d bytes", i, nblocks, len(data)-r.off)
			}
			g.blocks = make([]segBlock, nblocks)
			for j := range g.blocks {
				g.blocks[j] = segBlock{startTick: int64(r.u64()), off: r.u32()}
			}
			dataLen := int(r.u32())
			payload := r.take(dataLen)
			if r.err != nil {
				return nil, 0, r.err
			}
			prevOff := -1
			for j, b := range g.blocks {
				if int(b.off) >= dataLen || int(b.off) <= prevOff {
					return nil, 0, fmt.Errorf("core: sealed segment %d block %d offset out of order", i, j)
				}
				prevOff = int(b.off)
			}
			g.data = append(make([]byte, 0, dataLen), payload...)
		default:
			return nil, 0, fmt.Errorf("core: sealed segment %d has unknown kind %d", i, kind)
		}
		h.segs = append(h.segs, g)
		if i == 0 {
			h.first = g.first
		}
		h.n += g.n
		h.last = g.last
	}
	return &SealedHistory{h: h}, r.off, nil
}

// HistoryConfig configures the tiered event history of a Store: once a
// tracking-form direction's hot tier exceeds SealThreshold timestamps,
// sealing freezes all but the newest HotKeep into an immutable warm
// segment quantized to Tick (see DESIGN.md §12). The zero value
// disables tiering.
type HistoryConfig struct {
	// Tick is the quantization granule in event-time units. Sealing
	// verifies every timestamp reconstructs exactly from the tick grid
	// and falls back to an uncompressed (but still immutable) segment
	// for sequences that do not, so answers stay bit-identical for any
	// Tick. Must be > 0.
	Tick float64
	// HotKeep is the number of newest timestamps kept in the mutable hot
	// tier per direction after a seal (default 1024).
	HotKeep int
	// SealThreshold triggers sealing when a direction's hot tier exceeds
	// it (default 8192). Must be > HotKeep.
	SealThreshold int
	// AutoSealEvery, when > 0, makes stq.System run the background
	// sealer after every AutoSealEvery ingested events. 0 leaves sealing
	// to explicit SealColdPrefixes / SealHistory calls.
	AutoSealEvery int
}

// withDefaults normalizes and validates the configuration.
func (c HistoryConfig) withDefaults() (HistoryConfig, error) {
	if c.HotKeep == 0 {
		c.HotKeep = 1024
	}
	if c.SealThreshold == 0 {
		c.SealThreshold = 8192
	}
	if !(c.Tick > 0) || math.IsInf(c.Tick, 0) {
		return c, fmt.Errorf("core: history tick must be positive and finite, got %v", c.Tick)
	}
	if c.HotKeep < 0 {
		return c, fmt.Errorf("core: history HotKeep must be ≥ 0, got %d", c.HotKeep)
	}
	if c.SealThreshold <= c.HotKeep {
		return c, fmt.Errorf("core: history SealThreshold (%d) must exceed HotKeep (%d)", c.SealThreshold, c.HotKeep)
	}
	return c, nil
}

// SetHistoryConfig enables (or reconfigures) the tiered history.
// Sealing itself happens on SealColdPrefixes calls — from a maintenance
// goroutine, stq's background sealer, or tests.
func (s *Store) SetHistoryConfig(cfg HistoryConfig) error {
	norm, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	s.histCfg.Store(&norm)
	return nil
}

// GetHistoryConfig returns the active history configuration; ok is
// false when tiering is disabled.
func (s *Store) GetHistoryConfig() (HistoryConfig, bool) {
	if c := s.histCfg.Load(); c != nil {
		return *c, true
	}
	return HistoryConfig{}, false
}

// SealStats summarizes one SealColdPrefixes pass.
type SealStats struct {
	// Roads is the number of tracked edges (roads and world edges) whose
	// tracker was republished.
	Roads int
	// Segments is the number of new immutable segments created.
	Segments int
	// SealedEvents is the number of timestamps moved from the hot tier
	// into segments.
	SealedEvents int
	// LossyFallbacks counts segments stored raw because their
	// timestamps did not quantize exactly to the configured tick.
	LossyFallbacks int
}

// SealColdPrefixes runs one sealing pass: every tracking-form direction
// whose hot tier exceeds the configured threshold has its cold prefix
// (all but the newest HotKeep timestamps) frozen into an immutable warm
// segment, and the tracker republished with a trimmed hot tail.
//
// Publication uses the same atomic per-road pointer the read path
// snapshots (DESIGN.md §10): a concurrent reader sees either the old
// tracker (cold prefix still hot) or the new one (cold prefix sealed) —
// both answer every count bit-identically, so sealing is invisible to
// queries. Writers on the same stripe are excluded for the duration of
// one road's seal only. A no-op pass (nothing over threshold) costs one
// atomic load per road. Safe for concurrent use with ingestion and
// queries; concurrent SealColdPrefixes calls are safe but wasteful.
func (s *Store) SealColdPrefixes() SealStats {
	var st SealStats
	cfg, ok := s.GetHistoryConfig()
	if !ok {
		return st
	}
	for road := range s.roads {
		tr := s.roads[road].Load()
		if tr == nil || (len(tr.fwd) <= cfg.SealThreshold && len(tr.rev) <= cfg.SealThreshold) {
			continue
		}
		sh := &s.shards[shardOfRoad(planar.EdgeID(road))]
		sh.lock()
		tr = s.roads[road].Load() // re-load under the stripe lock
		next := *tr
		sealed := false
		if len(next.fwd) > cfg.SealThreshold {
			next.fwd, next.fwdHist = sealDirection(next.fwd, next.fwdHist, cfg, &st)
			sealed = true
		}
		if len(next.rev) > cfg.SealThreshold {
			next.rev, next.revHist = sealDirection(next.rev, next.revHist, cfg, &st)
			sealed = true
		}
		if sealed {
			s.roads[road].Store(&next)
			st.Roads++
		}
		sh.mu.Unlock()
	}
	if st.Segments > 0 {
		mSeals.Add(uint64(st.Segments))
		mSealedEvents.Add(uint64(st.SealedEvents))
		mSealSkipped.Add(uint64(st.LossyFallbacks))
	}
	return st
}

// sealDirection freezes one direction's cold prefix, returning the
// trimmed hot tail (a fresh allocation, so the old backing array is
// released) and the extended history.
func sealDirection(hot []float64, h *history, cfg HistoryConfig, st *SealStats) ([]float64, *history) {
	cut := len(hot) - cfg.HotKeep
	g := sealSegment(hot[:cut], cfg.Tick, h.hlen())
	if g.raw != nil {
		st.LossyFallbacks++
	}
	st.Segments++
	st.SealedEvents += g.n
	return copyTimes(hot[cut:]), h.extend(g)
}

// MemoryStats is the resident memory footprint of a Store's event
// storage, by tier. Unlike Storage (the paper's logical 8-bytes-per-
// timestamp accounting), MemoryStats reports actual allocated bytes:
// hot slices at capacity, sealed segments at their compact encoded
// size.
type MemoryStats struct {
	// Events is the total event count across both tiers.
	Events int
	// SealedEvents is the number of events held in immutable segments.
	SealedEvents int
	// Segments is the total immutable segment count.
	Segments int
	// HotBytes is the resident size of the mutable hot tier
	// (8 × capacity of every tracker slice, plus tracker structs).
	HotBytes int
	// SealedBytes is the resident size of the warm tier (encoded block
	// payloads, skip indexes, raw fallbacks, struct overhead).
	SealedBytes int
}

// TotalBytes is the total resident event-storage footprint.
func (m MemoryStats) TotalBytes() int { return m.HotBytes + m.SealedBytes }

// trackerStructBytes approximates one published Tracker allocation:
// the struct (4 slice/pointer fields) plus the atomic pointer cell.
const trackerStructBytes = 64

// Memory reports the resident footprint of the store's event storage by
// tier. Lock-free: it walks the published snapshots like a reader.
func (s *Store) Memory() MemoryStats {
	var m MemoryStats
	for i := range s.roads {
		tr := s.roads[i].Load()
		if tr == nil {
			continue
		}
		m.Events += tr.Len()
		m.HotBytes += trackerStructBytes + 8*(cap(tr.fwd)+cap(tr.rev))
		for _, h := range []*history{tr.fwdHist, tr.revHist} {
			if h == nil {
				continue
			}
			m.SealedEvents += h.n
			m.Segments += len(h.segs)
			m.SealedBytes += h.memBytes()
		}
	}
	return m
}
