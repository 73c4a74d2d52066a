package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/wire"
)

// Recovered is everything Open reconstructed from disk: the newest
// valid checkpoint (nil when none), the log records appended after it
// in LSN order, and whether a torn tail was truncated.
type Recovered struct {
	Checkpoint *Checkpoint
	// Records are the replayable records with LSN > Checkpoint.LSN,
	// in append order.
	Records []Record
	// Truncated reports that a torn or truncated tail was cut back to
	// the last valid record.
	Truncated bool
	// LastLSN is the highest LSN accounted for (checkpoint or record);
	// appends resume at LastLSN+1.
	LastLSN uint64
	// AppliedSeq is the last router apply number the state holds: the
	// larger of the checkpoint's and the last numbered record's.
	AppliedSeq uint64
}

// Open opens (creating if needed) the log rooted at dir and recovers
// its durable state: newest readable checkpoint, then every segment in
// LSN order with strict continuity checking. A frame that overruns its
// segment, fails its CRC, decodes invalidly, or breaks LSN continuity
// ends the replay at the previous record; the torn bytes are truncated
// (wal.truncations) and any later segments removed, so appends resume
// at a clean boundary. Records the checkpoint already covers are
// skipped by LSN — a crash between checkpoint rename and prefix GC can
// never double-apply a batch. A batch record an older build wrote that
// the checkpoint does not cover fails Open by name, with nothing
// truncated or removed.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	ck, err := loadLatestCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovered{Checkpoint: ck}
	var ckptLSN uint64
	if ck != nil {
		ckptLSN = ck.LSN
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	var (
		all     []Record
		expect  uint64 // 0: accept any starting LSN
		lastSeg = -1   // index of the last surviving segment
	)
	for i, first := range segs {
		path := filepath.Join(dir, segName(first))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading segment: %w", err)
		}
		records, nextExpect, validLen, torn, err := readSegment(data, expect, ckptLSN)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", segName(first), err)
		}
		all = append(all, records...)
		lastSeg = i
		if torn {
			if err := os.Truncate(path, validLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			mTruncations.Inc()
			rec.Truncated = true
			for _, later := range segs[i+1:] {
				os.Remove(filepath.Join(dir, segName(later)))
				mTruncations.Inc()
			}
			break
		}
		expect = nextExpect
	}

	rec.LastLSN = ckptLSN
	if n := len(all); n > 0 && all[n-1].LSN > rec.LastLSN {
		rec.LastLSN = all[n-1].LSN
	}
	if ck != nil {
		rec.AppliedSeq = ck.AppliedSeq
	}
	for _, r := range all {
		if r.LSN > ckptLSN {
			rec.Records = append(rec.Records, r)
			rec.AppliedSeq = max(rec.AppliedSeq, r.Seq)
		}
	}
	mRecovered.Add(uint64(len(rec.Records)))

	l := &Log{dir: dir, opts: opts.withDefaults(), lsn: rec.LastLSN, lastSync: time.Now()}
	startAt := rec.LastLSN + 1
	if lastSeg >= 0 {
		startAt = segs[lastSeg]
	}
	if err := l.startSegmentLocked(startAt); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// listSegments returns the first-LSNs of every segment in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, ent := range entries {
		if lsn, ok := parseName(ent.Name(), "wal-", ".seg"); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// readSegment scans one segment's bytes frame by frame. expect is the
// required LSN of the first record (0 accepts any — the oldest segment
// may begin below the checkpoint LSN if a crash interrupted prefix GC);
// covered is the checkpoint's LSN. It returns the valid records, the
// LSN the next segment must start at, the byte offset after the last
// valid record, and whether the scan ended early on a torn/corrupt
// frame. err is a record this build refuses to replay (decodePayload).
func readSegment(data []byte, expect, covered uint64) (records []Record, nextExpect uint64, validLen int64, torn bool, err error) {
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	off := 0
	for {
		if len(data)-off < frameHeaderSize {
			torn = len(data)-off > 0
			break
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length < recHeaderSize || length > maxRecordBytes || off+frameHeaderSize+length > len(data) {
			torn = true
			break
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			torn = true
			break
		}
		r, derr := decodePayload(payload, covered, dec)
		if derr == errCorrupt {
			torn = true
			break
		}
		if derr != nil {
			return nil, 0, 0, false, derr
		}
		if (expect != 0 || len(records) > 0) && r.LSN != expect {
			torn = true
			break
		}
		records = append(records, r)
		expect = r.LSN + 1
		off += frameHeaderSize + length
	}
	return records, expect, int64(off), torn, nil
}
