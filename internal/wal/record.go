package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// This file defines the on-disk record format of the log. Every record
// is framed as
//
//	| length uint32 LE | crc32c(payload) uint32 LE | payload |
//
// and a payload starts with a one-byte record type followed by the
// record's 8-byte LSN. CRC32C (Castagnoli) plus the length prefix is
// what recovery uses to detect torn or truncated tail records: a frame
// whose declared length overruns the file, or whose checksum does not
// match, ends the replay at the last valid record (DESIGN.md §11).
//
// A batch record's body is the wire's ingest payload (internal/wire,
// DESIGN.md §15) encoded at wire.DefaultTick: the bytes a KindIngest
// frame carries behind its header, read back by Decoder.DecodeIngest.
// Its timestamp-mode byte says how it spells time, so a new encoding is
// a new mode value there, not a new record type here.

// Record types.
const (
	// recBatchFixed is a batch in the fixed-width event encoding older
	// builds wrote. Nothing writes it; recovery refuses one the
	// checkpoint does not cover.
	recBatchFixed byte = 1
	// recOrdering is an ingestion-ordering change older builds logged.
	// Nothing writes it; recovery checks its length and drops it, so the
	// LSN sequence stays continuous.
	recOrdering byte = 2
	// recBatch is an atomic batch of ingestion events.
	recBatch byte = 3
	// recSeqBatch is a batch a cluster cell applied under the router's
	// apply number: the number as a u64, then a recBatch body.
	recSeqBatch byte = 4
)

const (
	frameHeaderSize = 8
	recHeaderSize   = 1 + 8 // type + LSN
	// maxRecordBytes bounds a single payload; a larger declared length
	// is treated as corruption, not an allocation request.
	maxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginRecord appends room for a frame header, then the record type and
// LSN; the body follows, and sealRecord backfills the header.
func beginRecord(dst []byte, typ byte, lsn uint64) []byte {
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = append(dst, typ)
	return appendU64(dst, lsn)
}

// sealRecord writes the length and CRC of a frame begun by beginRecord.
func sealRecord(frame []byte) []byte {
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// Record is one decoded log record, ready for replay.
type Record struct {
	LSN uint64
	// Seq is the router's apply number of a recSeqBatch, 0 otherwise.
	Seq    uint64
	Events []core.Event
}

// errCorrupt marks a structurally invalid payload; recovery treats it
// like a CRC failure (stop at the previous record).
var errCorrupt = fmt.Errorf("wal: corrupt record payload")

// decodePayload parses a checksummed payload into a Record. A numbered
// batch must carry a number above 0, the router's first. A batch's
// events are cloned out of dec, which the Record outlives. An ordering
// record reads as a record without events. A batch an older build wrote
// is no error when the checkpoint covers it (LSN ≤
// covered: recovery drops it unread) and a refusal otherwise — this
// build cannot replay it, and it is not a torn tail to cut off.
func decodePayload(p []byte, covered uint64, dec *wire.Decoder) (Record, error) {
	if len(p) < recHeaderSize {
		return Record{}, errCorrupt
	}
	r := Record{LSN: binary.LittleEndian.Uint64(p[1:9])}
	body := p[recHeaderSize:]
	switch p[0] {
	case recOrdering:
		if len(body) != 1 {
			return Record{}, errCorrupt
		}
		return r, nil
	case recSeqBatch:
		if len(body) < 8 {
			return Record{}, errCorrupt
		}
		if r.Seq = binary.LittleEndian.Uint64(body); r.Seq == 0 {
			return Record{}, errCorrupt
		}
		body = body[8:]
		fallthrough
	case recBatch:
		events, err := dec.DecodeIngest(body)
		if err != nil {
			return Record{}, errCorrupt
		}
		r.Events = slices.Clone(events)
		return r, nil
	case recBatchFixed:
		if r.LSN <= covered {
			return r, nil
		}
		return Record{}, fmt.Errorf("record %d is a batch written by an older build: checkpoint with that build first", r.LSN)
	}
	return Record{}, errCorrupt
}
