package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/planar"
)

// This file implements the checkpoint format: a versioned binary
// serialization of the full store snapshot, covered end to end by one
// trailing CRC32C. Layout (all integers little-endian):
//
//	magic "STQCKPT1" (8) | version u32 | lsn u64 | serving_epoch u64
//	| applied_seq u64 | ordering u8 | clock f64bits | events u64
//	| n_edges u32 | { edge u32 | flags u8
//	                | [sealed-run wire, if flags&1]
//	                | n_fwd u32 | fwd f64bits…
//	                | n_rev u32 | rev f64bits… }…
//	| crc32c-of-everything-above u32
//
// An edge is a tracked edge of the closed graph: a road, or a
// junction's world edge (id NumRoads + junction; fwd = enter, rev =
// leave), so gateway history travels with its sealed run like any
// other. The flags byte and the compact sealed run of a tiered history
// (core.SealedRun wire format, DESIGN.md §12) keep month-scale
// checkpoints proportional to the sealed size, not the raw event count.
// The ordering byte is a relic of the second ingest contract older
// builds had: it is written as 1 and ignored on read, whatever it holds.
// applied_seq is the last router apply number a cluster cell applied (0
// elsewhere).
//
// This build writes version 5 and reads 3, 4 and 5. Versions 3 and 4
// carried one sealed history a direction (flags bit 0 fwd, bit 1 rev,
// each blob before its direction's hot list, core.DecodeDirectionHistory);
// they restore by sealing the two directions into one run
// (core.SealDirections), which answers bit-identically. Version 3 has
// no applied_seq and reads as 0. Any other version is refused by name:
// nothing writes version 1 (no flags byte, raw timestamps only) or
// version 2 (world edges in a raw gateway section of their own behind
// the roads) any more.
//
// Checkpoints are written beside the log as ckpt-<lsn>.stq via
// write-temp → fsync → rename, so partially written checkpoints are
// never visible under their final name.

const (
	ckptMagic   = "STQCKPT1"
	ckptVersion = 5
	// ckptVersionSeq and ckptVersionNoSeq are the older versions still
	// read: one sealed history a direction, with and without applied_seq.
	ckptVersionSeq   = 4
	ckptVersionNoSeq = 3
	// ckptOrdering is the ordering byte every checkpoint carries.
	ckptOrdering = 1
)

// Checkpoint pairs a store snapshot with its log position and the
// serving epoch at capture time.
type Checkpoint struct {
	// LSN is the last log record the snapshot includes; recovery skips
	// logged records at or below it.
	LSN uint64
	// ServingEpoch is stq.System's serving epoch when the checkpoint was
	// taken; restore resumes strictly above it.
	ServingEpoch uint64
	// AppliedSeq is the last router apply number the snapshot holds.
	AppliedSeq uint64
	Snapshot   *core.StoreSnapshot
}

func appendTimes(dst []byte, ts []float64) []byte {
	dst = appendU32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = appendU64(dst, math.Float64bits(t))
	}
	return dst
}

// encodeCheckpoint serializes ck, including the trailing CRC.
func encodeCheckpoint(ck *Checkpoint) []byte {
	snap := ck.Snapshot
	size := 8 + 4 + 8 + 8 + 8 + 1 + 8 + 8 + 4 + 4
	for _, rf := range snap.Roads {
		size += 13 + 8*(len(rf.Fwd)+len(rf.Rev))
		if rf.Sealed != nil {
			size += rf.Sealed.WireSize()
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, ckptMagic...)
	buf = appendU32(buf, ckptVersion)
	buf = appendU64(buf, ck.LSN)
	buf = appendU64(buf, ck.ServingEpoch)
	buf = appendU64(buf, ck.AppliedSeq)
	buf = append(buf, ckptOrdering)
	buf = appendU64(buf, math.Float64bits(snap.Clock))
	buf = appendU64(buf, uint64(snap.Events))
	buf = appendU32(buf, uint32(len(snap.Roads)))
	for _, rf := range snap.Roads {
		buf = appendU32(buf, uint32(rf.Road))
		if rf.Sealed != nil {
			buf = append(buf, 1)
			buf = rf.Sealed.AppendWire(buf)
		} else {
			buf = append(buf, 0)
		}
		buf = appendTimes(buf, rf.Fwd)
		buf = appendTimes(buf, rf.Rev)
	}
	return appendU32(buf, crc32.Checksum(buf, castagnoli))
}

// byteReader is a bounds-checked little-endian reader; the first
// overrun latches err and every later read returns zero.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		r.err = errCorrupt
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// sealed decodes one core.SealedRun wire blob at the read cursor.
func (r *byteReader) sealed() *core.SealedRun {
	if r.err != nil {
		return nil
	}
	sr, n, err := core.DecodeSealedRun(r.b[r.off:])
	if err != nil {
		r.err = errCorrupt
		return nil
	}
	r.off += n
	return sr
}

// directionHistory decodes one direction's sealed history of a version
// 3 or 4 image at the read cursor: its timestamps and tick.
func (r *byteReader) directionHistory() ([]float64, float64) {
	if r.err != nil {
		return nil, 0
	}
	ts, tick, n, err := core.DecodeDirectionHistory(r.b[r.off:])
	if err != nil {
		r.err = errCorrupt
		return nil, 0
	}
	r.off += n
	return ts, tick
}

func (r *byteReader) times() []float64 {
	n := int(r.u32())
	if r.err != nil || n > len(r.b)/8 {
		r.err = errCorrupt
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(r.u64())
	}
	return out
}

// errUnsupportedVersion distinguishes "written by another build" from
// corruption: recovery must refuse it loudly, not fall back silently.
type errUnsupportedVersion struct{ version uint32 }

func (e errUnsupportedVersion) Error() string {
	rel := "newer"
	if e.version < ckptVersionNoSeq {
		rel = "older"
	}
	return fmt.Sprintf("wal: checkpoint format version %d is %s than this build supports (%d–%d)", e.version, rel, ckptVersionNoSeq, ckptVersion)
}

// decodeCheckpoint parses and CRC-verifies a checkpoint file image.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4+4 {
		return nil, errCorrupt
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errCorrupt
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, errCorrupt
	}
	r := &byteReader{b: body, off: len(ckptMagic)}
	version := r.u32()
	if version < ckptVersionNoSeq || version > ckptVersion {
		return nil, errUnsupportedVersion{version: version}
	}
	ck := &Checkpoint{Snapshot: &core.StoreSnapshot{}}
	ck.LSN = r.u64()
	ck.ServingEpoch = r.u64()
	if version != ckptVersionNoSeq {
		ck.AppliedSeq = r.u64()
	}
	r.u8() // the ordering byte
	ck.Snapshot.Clock = math.Float64frombits(r.u64())
	ck.Snapshot.Events = int64(r.u64())
	nRoads := int(r.u32())
	for i := 0; i < nRoads && r.err == nil; i++ {
		rf := core.RoadForms{Road: planar.EdgeID(r.u32())}
		flags := r.u8()
		if version == ckptVersion {
			if flags&^byte(1) != 0 {
				r.err = errCorrupt
				break
			}
			if flags&1 != 0 {
				rf.Sealed = r.sealed()
			}
			rf.Fwd = r.times()
			rf.Rev = r.times()
		} else {
			if flags&^byte(3) != 0 {
				r.err = errCorrupt
				break
			}
			var fwd, rev []float64
			var tick, revTick float64
			if flags&1 != 0 {
				fwd, tick = r.directionHistory()
			}
			rf.Fwd = r.times()
			if flags&2 != 0 {
				rev, revTick = r.directionHistory()
			}
			rf.Rev = r.times()
			if tick == 0 {
				tick = revTick
			}
			rf.Sealed = core.SealDirections(fwd, rev, tick)
		}
		ck.Snapshot.Roads = append(ck.Snapshot.Roads, rf)
	}
	if r.err != nil || r.off != len(body) {
		return nil, errCorrupt
	}
	return ck, nil
}

// writeCheckpointFile durably writes ck as ckpt-<lsn>.stq in dir:
// temp file, fsync, rename, directory fsync.
func writeCheckpointFile(dir string, ck *Checkpoint) error {
	data := encodeCheckpoint(ck)
	final := filepath.Join(dir, ckptName(ck.LSN))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// loadLatestCheckpoint returns the newest readable checkpoint in dir,
// or nil when none exists. Corrupt checkpoint files are skipped (with
// the wal.checkpoints_skipped counter) in favour of older ones — a
// valid older checkpoint plus the surviving log still recovers a
// consistent prefix — but a checkpoint of another format version is a
// hard error: the data is present, this build just cannot read it.
func loadLatestCheckpoint(dir string) (*Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, ent := range entries {
		if lsn, ok := parseName(ent.Name(), "ckpt-", ".stq"); ok {
			lsns = append(lsns, lsn)
		}
	}
	slices.Sort(lsns)
	slices.Reverse(lsns) // newest first
	for _, lsn := range lsns {
		data, err := os.ReadFile(filepath.Join(dir, ckptName(lsn)))
		if err != nil {
			mCkptSkipped.Inc()
			continue
		}
		ck, err := decodeCheckpoint(data)
		if err != nil {
			if errors.As(err, new(errUnsupportedVersion)) {
				return nil, err
			}
			mCkptSkipped.Inc()
			continue
		}
		return ck, nil
	}
	return nil, nil
}
