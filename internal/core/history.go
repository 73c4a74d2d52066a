package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/planar"
)

// This file implements the tiered event history above the block
// encoding (segment.go): the seal machinery that moves cold hot-tier
// prefixes into each edge's one sealed run, the compact wire form
// checkpoints carry, and the per-direction form older checkpoints
// carried, which restores through the same seal (DESIGN.md §12).

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

// sealRun returns prev (nil-safe) extended with fwd and rev: each
// direction's next sealed events in order, every one at or after that
// direction's last sealed one. prev is never modified. Per direction the
// new events follow the sealed ones, but across directions they may
// precede prev's last — one direction's cold prefix can be older than
// what the other has already sealed — so the run is re-encoded from the
// first block they land in: the blocks before it are kept as they are,
// the rest decoded, merged with the new events in time order (forward
// first among equal timestamps) and encoded again. The run is kept raw when any of its timestamps does not
// reconstruct exactly from tick, so answers are bit-identical whatever
// the tick.
func sealRun(prev *run, fwd, rev []float64, tick float64) *run {
	if len(fwd)+len(rev) == 0 {
		return prev
	}
	from := 0
	if prev != nil && (prev.raw != nil || prev.tick == tick) {
		m := math.Inf(1)
		if len(fwd) > 0 {
			m = fwd[0]
		}
		if len(rev) > 0 && rev[0] < m {
			m = rev[0]
		}
		from = prev.countLE(m) / segBlockLen
	}
	for {
		r, ok := encodeRun(prev, from, fwd, rev, tick)
		if ok {
			return r
		}
		from = 0 // the new events are off the grid the kept blocks are on
	}
}

// sealScratch is the working set of one encodeRun: the decoded tail
// and its two directions, the merged timestamps and their direction
// bits, their tick values, the payload under construction. Pooled, so a seal pass over every edge allocates the
// runs it publishes and little else.
type sealScratch struct {
	old, oldFwd, oldRev, ts []float64
	dir                     []uint64
	ticks                   []int64
	data                    []byte
}

var sealScratches = sync.Pool{New: func() any { return new(sealScratch) }}

// encodeRun builds sealRun's result with prev's blocks before from kept.
// ok is false when the events from block from on do not quantize to
// tick while the kept blocks are quantized: the caller starts over from
// block 0, and the whole run is kept raw.
func encodeRun(prev *run, from int, fwd, rev []float64, tick float64) (*run, bool) {
	sc := sealScratches.Get().(*sealScratch)
	defer sealScratches.Put(sc)
	k := from * segBlockLen
	n := prev.len() + len(fwd) + len(rev)
	nb := (n + segBlockLen - 1) / segBlockLen
	r := &run{n: n, nfwd: prev.dirLen(true) + len(fwd), tick: tick, blocks: make([]runBlock, nb), seals: 1}
	if prev != nil {
		copy(r.blocks, prev.blocks[:from])
		r.dirFirst, r.dirLast, r.seals = prev.dirFirst, prev.dirLast, prev.seals+1
	}
	// The events from block from on, each direction's in order: the
	// decoded tail's, then the new ones, since per direction the new
	// events follow the sealed ones. Every event before block from is at
	// or before the first new one, so merging the two directions gives
	// the run from event k on.
	if k < prev.len() {
		sc.old = prev.appendTimes(from, sc.old[:0])
		oldFwd, oldRev := sc.oldFwd[:0], sc.oldRev[:0]
		for i, t := range sc.old {
			if prev.isFwd(k + i) {
				oldFwd = append(oldFwd, t)
			} else {
				oldRev = append(oldRev, t)
			}
		}
		fwd, rev = append(oldFwd, fwd...), append(oldRev, rev...)
		sc.oldFwd, sc.oldRev = fwd, rev
	}
	// Event j of ts is event k+j of the run: bit j of dir, bit j%128 of
	// block from+j/128.
	ts := slices.Grow(sc.ts[:0], n-k)[:n-k]
	dir := slices.Grow(sc.dir[:0], 2*(nb-from))[:2*(nb-from)]
	clear(dir)
	sc.ts, sc.dir = ts, dir
	j, f, v := 0, 0, 0
	for ; f < len(fwd) && v < len(rev); j++ {
		// Which direction comes next is a coin toss on traffic, so the
		// pick is branch-free (conditional moves); ties go forward first.
		t, bit := rev[v], uint64(0)
		if fwd[f] <= t {
			t, bit = fwd[f], 1
		}
		ts[j] = t
		dir[j/64] |= bit << (j % 64)
		f += int(bit)
		v += 1 - int(bit)
	}
	for ; f < len(fwd); f, j = f+1, j+1 {
		ts[j] = fwd[f]
		dir[j/64] |= 1 << (j % 64)
	}
	copy(ts[j:], rev[v:])
	for b := from; b < nb; b++ {
		r.blocks[b].dir = [2]uint64{dir[2*(b-from)], dir[2*(b-from)+1]}
	}
	fwdBefore := prev.fwdRank(k)
	for b := from; b < nb; b++ {
		r.blocks[b].fwd = uint32(fwdBefore)
		fwdBefore += bits.OnesCount64(r.blocks[b].dir[0]) + bits.OnesCount64(r.blocks[b].dir[1])
	}
	for d, add := range [2][]float64{fwd, rev} {
		if len(add) == 0 {
			continue
		}
		if prev.dirLen(d == 0) == 0 {
			r.dirFirst[d] = add[0]
		}
		r.dirLast[d] = add[len(add)-1]
	}
	r.first, r.last = ts[0], ts[len(ts)-1]
	if k > 0 {
		r.first = prev.first
	}
	// A raw run extended from inside stays raw. Otherwise the merged
	// events are quantized, and when they are off the grid the run is
	// raw whole — from block 0, so the caller starts over if blocks were
	// kept.
	var keptRaw []float64
	if prev != nil && prev.raw != nil {
		keptRaw = prev.raw[:k]
	}
	ok := false
	if keptRaw == nil || k == 0 {
		sc.ticks, ok = quantize(sc.ticks[:0], ts, tick)
		if !ok && k > 0 {
			return nil, false
		}
	}
	if !ok {
		r.raw, r.tick = append(append(make([]float64, 0, n), keptRaw...), ts...), 0
		return r, true
	}
	ticks := sc.ticks
	// kept is the payload of the blocks before from.
	var kept []byte
	if k > 0 {
		kept = prev.data
		if from < len(prev.blocks) {
			kept = prev.data[:prev.blocks[from].off]
		}
	}
	data := append(sc.data[:0], kept...)
	var modes [len(mBlockModes)]uint64
	for b := from; b < nb; b++ {
		lo, hi := b*segBlockLen-k, min((b+1)*segBlockLen, n)-k
		r.blocks[b].startTick, r.blocks[b].off = ticks[lo], uint32(len(data))
		data = appendBlock(data, ticks[lo:hi], &modes)
	}
	for m, c := range modes {
		mBlockModes[m].Add(c)
	}
	sc.data = data
	// Copy out at exact capacity: the sealed form is long-lived.
	r.data = append(make([]byte, 0, len(data)), data...)
	return r, true
}

// SealedRun is the exported, immutable handle of one tracked edge's
// sealed run, as carried by StoreSnapshot and checkpoint images.
// Holders share the underlying run; nothing is ever copied or mutated.
type SealedRun struct {
	r *run
}

// NumEvents returns the number of sealed events, both directions.
func (sr *SealedRun) NumEvents() int {
	if sr == nil {
		return 0
	}
	return sr.r.len()
}

// Wire format of a sealed run (all integers little-endian):
//
//	u64 n_events | u8 kind (0 = tick-quantized blocks, 1 = raw float64)
//	| f64 first_fwd | f64 last_fwd | f64 first_rev | f64 last_rev
//	| { u64 dir_lo | u64 dir_hi } × ⌈n_events/128⌉
//	kind 0: f64 tick | { i64 start_tick | u32 payload_off } × ⌈n_events/128⌉
//	        | u32 data_len | data bytes
//	kind 1: n_events × f64bits
//
// A direction without events writes 0 for its first and last. The block
// payload begins with one mode byte (bit width, 0xFF for varint deltas,
// 0xFE for Elias–Fano offsets); see segment.go. The byte is
// self-describing, so a new mode is not a new format version. Decode
// rebuilds the derived fields (forward counts, first, last) and performs
// structural bounds validation; RestoreSnapshot additionally runs the
// full semantic validation (validate).

const (
	sealedKindBlocks = 0
	sealedKindRaw    = 1
)

// WireSize returns the exact AppendWire output size in bytes.
func (sr *SealedRun) WireSize() int {
	r := sr.r
	size := 8 + 1 + 32 + 16*len(r.blocks)
	if r.raw != nil {
		return size + 8*len(r.raw)
	}
	return size + 8 + 12*len(r.blocks) + 4 + len(r.data)
}

// AppendWire appends the compact wire form of the sealed run.
func (sr *SealedRun) AppendWire(dst []byte) []byte {
	r := sr.r
	dst = appendWireU64(dst, uint64(r.n))
	if r.raw != nil {
		dst = append(dst, sealedKindRaw)
	} else {
		dst = append(dst, sealedKindBlocks)
	}
	for d := range r.dirFirst {
		dst = appendWireU64(dst, math.Float64bits(r.dirFirst[d]))
		dst = appendWireU64(dst, math.Float64bits(r.dirLast[d]))
	}
	for _, b := range r.blocks {
		dst = appendWireU64(dst, b.dir[0])
		dst = appendWireU64(dst, b.dir[1])
	}
	if r.raw != nil {
		for _, t := range r.raw {
			dst = appendWireU64(dst, math.Float64bits(t))
		}
		return dst
	}
	dst = appendWireU64(dst, math.Float64bits(r.tick))
	for _, b := range r.blocks {
		dst = appendWireU64(dst, uint64(b.startTick))
		dst = appendWireU32(dst, b.off)
	}
	dst = appendWireU32(dst, uint32(len(r.data)))
	return append(dst, r.data...)
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
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
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

// f64s reads n float64s, bounding n by the bytes left before sizing
// anything to it (8·n wraps for a declared n ≥ 2⁶¹).
func (r *wireReader) f64s(n int) []float64 {
	if r.err == nil && n > (len(r.b)-r.off)/8 {
		r.err = fmt.Errorf("core: sealed history claims %d timestamps in %d bytes", n, len(r.b)-r.off)
	}
	raw := r.take(8 * n)
	if raw == nil {
		return nil
	}
	out := make([]float64, n)
	for j := range out {
		out[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return out
}

// blockIndex reads the {start_tick, payload_off} skip entries of
// len(blocks) blocks and the payload they index, checking that the
// offsets ascend inside it.
func (r *wireReader) blockIndex(blocks []runBlock) []byte {
	for j := range blocks {
		blocks[j].startTick, blocks[j].off = int64(r.u64()), r.u32()
	}
	dataLen := int(r.u32())
	payload := r.take(dataLen)
	if r.err != nil {
		return nil
	}
	prevOff := -1
	for _, b := range blocks {
		if int(b.off) >= dataLen || int(b.off) <= prevOff {
			r.err = fmt.Errorf("core: sealed history block offsets out of order")
			return nil
		}
		prevOff = int(b.off)
	}
	return append(make([]byte, 0, dataLen), payload...)
}

// blockCount bounds a declared event count by the bytes left, at
// minBytes a block, and returns its block count.
func (r *wireReader) blockCount(n, minBytes int) int {
	if r.err == nil && (n <= 0 || n > (len(r.b)-r.off)*segBlockLen/minBytes) {
		r.err = fmt.Errorf("core: sealed history claims %d events in %d bytes", n, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return (n + segBlockLen - 1) / segBlockLen
}

// DecodeSealedRun parses one sealed run from the front of data,
// returning the bytes consumed. Structural bounds are validated here
// (event and block counts, block offsets, payload sizes); callers
// installing the result into a store must run the semantic validation
// too (RestoreSnapshot does).
func DecodeSealedRun(data []byte) (*SealedRun, int, error) {
	rd := &wireReader{b: data}
	n := int(rd.u64())
	kind := rd.u8()
	r := &run{n: n, seals: 1}
	for d := range r.dirFirst {
		r.dirFirst[d] = math.Float64frombits(rd.u64())
		r.dirLast[d] = math.Float64frombits(rd.u64())
	}
	// Every block carries at least its 16 direction bytes.
	r.blocks = make([]runBlock, rd.blockCount(n, 16))
	for j := range r.blocks {
		r.blocks[j].fwd = uint32(r.nfwd)
		r.blocks[j].dir = [2]uint64{rd.u64(), rd.u64()}
		r.nfwd += bits.OnesCount64(r.blocks[j].dir[0]) + bits.OnesCount64(r.blocks[j].dir[1])
	}
	switch kind {
	case sealedKindRaw:
		r.raw = rd.f64s(n)
	case sealedKindBlocks:
		r.tick = math.Float64frombits(rd.u64())
		r.data = rd.blockIndex(r.blocks)
	default:
		return nil, 0, fmt.Errorf("core: sealed run has unknown kind %d", kind)
	}
	if rd.err != nil {
		return nil, 0, rd.err
	}
	// first and last follow from the directions' own.
	r.first, r.last = math.Inf(1), math.Inf(-1)
	for d, nd := range [2]int{r.nfwd, n - r.nfwd} {
		if nd > 0 {
			r.first, r.last = min(r.first, r.dirFirst[d]), max(r.last, r.dirLast[d])
		}
	}
	return &SealedRun{r: r}, rd.off, nil
}

// DecodeDirectionHistory parses one direction's sealed prefix in the
// per-direction wire form that checkpoint versions 3 and 4 carry, and
// returns its timestamps with the tick of its first quantized segment
// (0 when every segment is raw), for SealDirections:
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
// Every segment passes the validation a sealed run does, and the
// sequence must be in time order across them.
func DecodeDirectionHistory(data []byte) (ts []float64, tick float64, consumed int, err error) {
	rd := &wireReader{b: data}
	nsegs := int(rd.u32())
	if rd.err == nil && nsegs > len(data) {
		return nil, 0, 0, fmt.Errorf("core: sealed history claims %d segments in %d bytes", nsegs, len(data))
	}
	for i := 0; i < nsegs && rd.err == nil; i++ {
		kind := rd.u8()
		n := int(rd.u64())
		g := &run{n: n}
		g.first = math.Float64frombits(rd.u64())
		g.last = math.Float64frombits(rd.u64())
		g.dirFirst[1], g.dirLast[1] = g.first, g.last // all reverse: no direction bits
		switch kind {
		case sealedKindRaw:
			g.blocks = make([]runBlock, rd.blockCount(n, 8*segBlockLen))
			g.raw = rd.f64s(n)
		case sealedKindBlocks:
			g.tick = math.Float64frombits(rd.u64())
			nblocks := int(rd.u32())
			// Each block's index entry is 12 bytes.
			if want := rd.blockCount(n, 12); rd.err == nil && nblocks != want {
				return nil, 0, 0, fmt.Errorf("core: sealed segment %d has %d blocks, want %d", i, nblocks, want)
			}
			if rd.err != nil {
				break
			}
			g.blocks = make([]runBlock, nblocks)
			g.data = rd.blockIndex(g.blocks)
			if tick == 0 {
				tick = g.tick
			}
		default:
			return nil, 0, 0, fmt.Errorf("core: sealed segment %d has unknown kind %d", i, kind)
		}
		if rd.err != nil {
			break
		}
		if err := g.validate(); err != nil {
			return nil, 0, 0, fmt.Errorf("core: sealed segment %d: %w", i, err)
		}
		if len(ts) > 0 && g.first < ts[len(ts)-1] {
			return nil, 0, 0, fmt.Errorf("core: sealed segment %d starts at %v before previous seal %v", i, g.first, ts[len(ts)-1])
		}
		ts = g.appendTimes(0, ts)
	}
	if rd.err != nil {
		return nil, 0, 0, rd.err
	}
	return ts, tick, rd.off, nil
}

// SealDirections seals two directions' sealed timestamps — sorted, as
// DecodeDirectionHistory returns them — into one run through the seal
// SealColdPrefixes uses: how a checkpoint that carries one sealed
// history a direction is restored. nil when both are empty.
func SealDirections(fwd, rev []float64, tick float64) *SealedRun {
	if len(fwd)+len(rev) == 0 {
		return nil
	}
	return &SealedRun{r: sealRun(nil, fwd, rev, tick)}
}

// HistoryConfig configures the tiered event history of a Store: once a
// tracking-form direction's hot tier exceeds SealThreshold timestamps,
// sealing moves all but the newest HotKeep into the edge's immutable
// sealed run, quantized to Tick (see DESIGN.md §12). The zero value
// disables tiering.
type HistoryConfig struct {
	// Tick is the quantization granule in event-time units. Sealing
	// verifies every timestamp reconstructs exactly from the tick grid
	// and keeps a run that does not uncompressed (but still immutable),
	// so answers stay bit-identical for any Tick. Must be > 0.
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
	// tracker was republished with its sealed run extended.
	Roads int
	// SealedEvents is the number of timestamps moved from the hot tier
	// into sealed runs.
	SealedEvents int
	// LossyFallbacks counts the runs the pass left raw because their
	// timestamps did not quantize exactly to the configured tick.
	LossyFallbacks int
}

// SealColdPrefixes runs one sealing pass: every tracking-form direction
// whose hot tier exceeds the configured threshold has its cold prefix
// (all but the newest HotKeep timestamps) moved into its edge's
// immutable sealed run — both directions of an edge in one seal when
// both are over — and the tracker republished with trimmed hot tails.
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
	cut := func(hot []float64) int {
		if len(hot) > cfg.SealThreshold {
			return len(hot) - cfg.HotKeep
		}
		return 0
	}
	for road := range s.roads {
		tr := s.roads[road].Load()
		if tr == nil || cut(tr.fwd)+cut(tr.rev) == 0 {
			continue
		}
		sh := &s.shards[shardOfRoad(planar.EdgeID(road))]
		sh.lock()
		tr = s.roads[road].Load() // re-load under the stripe lock
		next := *tr
		fc, rc := cut(next.fwd), cut(next.rev)
		next.sealed = sealRun(next.sealed, next.fwd[:fc], next.rev[:rc], cfg.Tick)
		// The trimmed hot tails are fresh allocations, so the old backing
		// arrays are released.
		if fc > 0 {
			next.fwd = copyTimes(next.fwd[fc:])
		}
		if rc > 0 {
			next.rev = copyTimes(next.rev[rc:])
		}
		s.roads[road].Store(&next)
		sh.mu.Unlock()
		st.Roads++
		st.SealedEvents += fc + rc
		if next.sealed.raw != nil {
			st.LossyFallbacks++
		}
	}
	if st.Roads > 0 {
		mSeals.Add(uint64(st.Roads))
		mSealedEvents.Add(uint64(st.SealedEvents))
		mSealSkipped.Add(uint64(st.LossyFallbacks))
	}
	return st
}

// MemoryStats is the resident memory footprint of a Store's event
// storage, by tier. Unlike Storage (the paper's logical 8-bytes-per-
// timestamp accounting), MemoryStats reports actual allocated bytes:
// hot slices at capacity, sealed runs at their compact encoded size.
type MemoryStats struct {
	// Events is the total event count across both tiers.
	Events int
	// SealedEvents is the number of events held in sealed runs.
	SealedEvents int
	// Runs is the number of sealed runs: tracked edges with sealed
	// events.
	Runs int
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
// the struct (two slices and a pointer) plus the atomic pointer cell.
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
		if r := tr.sealed; r != nil {
			m.SealedEvents += r.n
			m.Runs++
			m.SealedBytes += r.memBytes()
		}
	}
	return m
}
