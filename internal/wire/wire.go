// Package wire implements the compact binary wire protocol of the
// serving surface (DESIGN.md §15): a versioned, length-prefixed,
// CRC32C-framed codec for ingest batches, query requests, and query
// responses, exchanged over the existing HTTP endpoints under
// Content-Type application/x-stq-wire.
//
// The codec applies the same compact-encoding discipline as the warm
// history tier (internal/core/segment): varint counts, delta-encoded
// road identifiers, tick-quantized delta-encoded timestamps with an
// unconditional raw fallback when any timestamp does not reconstruct
// exactly from the tick grid, and a CRC32C (Castagnoli) checksum over
// every payload so truncated or corrupted frames are rejected, never
// misparsed. The ingest payload is also the body of the write-ahead
// log's batch record (internal/wal): an event batch has one binary
// spelling, on the network and on disk.
//
// Encoders and decoders are pooled (GetEncoder / GetDecoder): on the
// steady-state path one frame is encoded or decoded with zero heap
// allocations (proved by testing.AllocsPerRun in wire_test.go).
package wire

import (
	"fmt"
	"hash/crc32"

	"repro/internal/obs"
)

// ContentType is the HTTP media type of a wire frame.
const ContentType = "application/x-stq-wire"

// Frame header layout, little-endian:
//
//	| magic u16 | version u8 | kind u8 | payload length u32 | crc32c(payload) u32 |
//
// followed by the payload. The magic pins byte order and protocol
// identity; the version byte is bumped on any incompatible payload
// change (decoders reject unknown versions rather than guessing); the
// CRC is computed over the payload only, so the header itself is
// validated structurally (magic, version, kind, bounded length).
const (
	// Magic identifies a wire frame ("SW": stq wire), little-endian.
	Magic uint16 = 0x5753
	// Version is the current protocol version. Compatibility policy:
	// decoders accept exactly this version. It versions the frame, not
	// the ingest payload the WAL stores without one: that payload's
	// timestamp-mode byte describes its own encoding, so a new encoding
	// adds a mode value rather than a version to either envelope.
	// Version 2 dropped the junction list from the perimeter scatter ops
	// (world edges travel as cuts); version 3 dropped the world-junction
	// set from HelloAck (only gateways carry world edges, and the world
	// says which); version 4 dropped four fault counters from a degraded
	// result. Each bump makes a mixed-version cluster fail at Hello, not
	// mid-query.
	Version byte = 4
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 12
	// MaxPayload bounds a declared payload length; larger values are
	// corruption (or abuse), not an allocation request.
	MaxPayload = 16 << 20
)

// Frame kinds.
const (
	// KindIngest is a RecordBatch ingest request.
	KindIngest byte = 1
	// KindQuery is a spatiotemporal range-count request.
	KindQuery byte = 2
	// KindResult is a successful query response.
	KindResult byte = 3
	// KindIngestResult is a successful ingest response.
	KindIngestResult byte = 4
	// KindError is an error response (any endpoint).
	KindError byte = 5
	// KindHello is a cluster handshake request (router → cell): the
	// router pins the manifest hash and cell index it expects.
	KindHello byte = 6
	// KindHelloAck is the cell's handshake response: clock, event count
	// and last applied apply number.
	KindHelloAck byte = 7
	// KindScatter is one scatter sub-operation of a routed query or a
	// phase-1 ingest validation (router → cell).
	KindScatter byte = 8
	// KindPartial is the cell's partial result for one scatter op.
	KindPartial byte = 9
)

// Query kinds and bounds are pinned independently of the in-memory
// enums (internal/query, internal/sampled) so the wire format cannot
// drift if those are renumbered, as event kinds are pinned against
// core.EventKind.
const (
	QuerySnapshot  byte = 0
	QueryStatic    byte = 1
	QueryTransient byte = 2

	BoundLower byte = 0
	BoundUpper byte = 1
)

// Event kinds on the wire (pinned: write-ahead logs store them too).
const (
	evEnter byte = 0
	evMove  byte = 1
	evLeave byte = 2
)

// Ingest-payload timestamp modes. The mode byte makes a payload
// self-describing, like a sealed block's mode byte (internal/core).
const (
	tsRaw       byte = 0
	tsQuantized byte = 1
)

// DefaultTick is the timestamp quantization grid encoders try first
// (seconds). Streams that do not reconstruct exactly on the grid fall
// back to raw 8-byte timestamps — compactness is opportunistic,
// bit-identical reconstruction is unconditional.
const DefaultTick = 1.0

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Observability counters (internal/obs; surfaced via /metrics as
// wire_frames_total_*, wire_decode_errors, wire_bytes_in/out).
// frames_total is split per frame kind in place of Prometheus labels,
// which the obs registry does not model.
var (
	framesIngest  = obs.Default.Counter("wire.frames_total.ingest")
	framesQuery   = obs.Default.Counter("wire.frames_total.query")
	framesResult  = obs.Default.Counter("wire.frames_total.result")
	framesError   = obs.Default.Counter("wire.frames_total.error")
	framesCluster = obs.Default.Counter("wire.frames_total.cluster")
	decodeErrors  = obs.Default.Counter("wire.decode_errors")
	bytesIn       = obs.Default.Counter("wire.bytes_in")
	bytesOut      = obs.Default.Counter("wire.bytes_out")
)

// countFrame attributes one frame of the given kind to the per-kind
// counters; in counts toward bytes_in (decode) or bytes_out (encode).
func countFrame(kind byte, n int, in bool) {
	switch kind {
	case KindIngest:
		framesIngest.Inc()
	case KindQuery:
		framesQuery.Inc()
	case KindResult, KindIngestResult:
		framesResult.Inc()
	case KindError:
		framesError.Inc()
	case KindHello, KindHelloAck, KindScatter, KindPartial:
		framesCluster.Inc()
	}
	if in {
		bytesIn.AddInt(n)
	} else {
		bytesOut.AddInt(n)
	}
}

// QueryFrame is the decoded form of a KindQuery payload. Kind and
// Bound carry the pinned wire values (QuerySnapshot..., BoundLower...);
// the serving layer maps them onto the engine enums and rejects
// anything else with 400.
type QueryFrame struct {
	// Rect is [minX, minY, maxX, maxY].
	Rect   [4]float64
	T1, T2 float64
	Kind   byte
	Bound  byte
}

// DegradationFrame mirrors stq.Degradation on the wire.
type DegradationFrame struct {
	UnobservedCuts int
	Lower, Upper   float64
	FailedNodes    int
}

// ResultFrame is the decoded form of a KindResult payload — the binary
// counterpart of the serving layer's JSON QueryResult.
type ResultFrame struct {
	Count         float64
	Missed        bool
	RegionFaces   int
	NodesAccessed int
	Messages      int
	Hops          int
	TotalHops     int
	EdgesAccessed int
	// Degraded reports whether Degradation is meaningful (the JSON
	// body's degradation != null).
	Degraded    bool
	Degradation DegradationFrame
}

// errCorrupt wraps every structural decode failure so callers can
// distinguish malformed frames from I/O errors.
type errCorrupt struct{ msg string }

func (e errCorrupt) Error() string { return "wire: " + e.msg }

func corruptf(format string, args ...any) error {
	decodeErrors.Inc()
	return errCorrupt{msg: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err marks a structurally invalid frame (as
// opposed to an I/O failure reading it).
func IsCorrupt(err error) bool {
	_, ok := err.(errCorrupt)
	return ok
}
