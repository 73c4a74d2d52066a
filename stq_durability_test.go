package stq

// Serving-layer tests of the durability subsystem (OpenDurable /
// Checkpoint / Close, internal/wal): recovered systems must answer
// bit-identically to the system that wrote the log, ServingEpoch must
// advance strictly across a restore so no stale query plan survives,
// and the durable ingestion paths must stay safe under -race.

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/wal"
)

func durableTestWorld(t *testing.T) *roadnet.World {
	t.Helper()
	w, err := roadnet.GridCity(GridOpts{NX: 6, NY: 6, Spacing: 80, Jitter: 0.1}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// durableBatches builds n valid event batches against w, continuing
// from time t0.
func durableBatches(w *roadnet.World, n, perBatch int, t0 float64, seed int64) [][]Event {
	rng := rand.New(rand.NewSource(seed))
	tm := t0
	out := make([][]Event, 0, n)
	for i := 0; i < n; i++ {
		var batch []Event
		for j := 0; j < perBatch; j++ {
			tm += rng.Float64() * 3
			switch rng.Intn(4) {
			case 0:
				batch = append(batch, EnterEvent(w.Gateways[rng.Intn(len(w.Gateways))], tm))
			case 1:
				batch = append(batch, LeaveEvent(w.Gateways[rng.Intn(len(w.Gateways))], tm))
			default:
				road := EdgeID(rng.Intn(w.Star.NumEdges()))
				e := w.Star.Edge(road)
				from := e.U
				if rng.Intn(2) == 0 {
					from = e.V
				}
				batch = append(batch, MoveEvent(road, from, tm))
			}
		}
		out = append(out, batch)
	}
	return out
}

// assertSameAnswers requires bit-identical responses from two systems
// over a grid of regions, times, and query kinds.
func assertSameAnswers(t *testing.T, want, got *System, horizon float64) {
	t.Helper()
	for _, frac := range []float64{0.25, 0.5, 0.8, 1.0} {
		rect := centered(want, frac)
		for _, tf := range []float64{0.1, 0.4, 0.7, 1.0} {
			for _, kind := range []Kind{Snapshot, Transient, Static} {
				q := Query{Rect: rect, T1: tf * horizon * 0.4, T2: tf * horizon, Kind: kind}
				rw, err := want.Query(q)
				if err != nil {
					t.Fatalf("reference query: %v", err)
				}
				rg, err := got.Query(q)
				if err != nil {
					t.Fatalf("recovered query: %v", err)
				}
				if rw.Count != rg.Count || rw.Missed != rg.Missed {
					t.Fatalf("%v frac=%v tf=%v: recovered answer %v/%v != reference %v/%v",
						kind, frac, tf, rg.Count, rg.Missed, rw.Count, rw.Missed)
				}
			}
		}
	}
}

// TestOpenDurableRoundTrip: under every fsync policy, a closed and
// reopened durable system answers exactly like its writer, keeps
// ingesting, and recovers again through a checkpoint.
func TestOpenDurableRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		t.Run(tc.name, func(t *testing.T) { openDurableRoundTrip(t, tc.policy) })
	}
}

func openDurableRoundTrip(t *testing.T, policy SyncPolicy) {
	w := durableTestWorld(t)
	dir := t.TempDir()

	sys, err := OpenDurable(w, Durability{Dir: dir, Sync: policy})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if !sys.Durable() {
		t.Fatalf("system not durable")
	}
	batches := durableBatches(w, 30, 6, 0, 21)
	for _, b := range batches {
		if err := sys.RecordBatch(b); err != nil {
			t.Fatalf("RecordBatch: %v", err)
		}
	}
	horizon := 30 * 6 * 3.0
	want := sys.NumEvents()
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sys.Query(Query{Rect: centered(sys, 0.5), T1: 10, Kind: Snapshot}); err != nil {
		t.Fatalf("Query after Close: %v", err)
	}

	re, err := OpenDurable(w, Durability{Dir: dir, Sync: policy})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.NumEvents() != want {
		t.Fatalf("recovered %d events, want %d", re.NumEvents(), want)
	}
	assertSameAnswers(t, sys, re, horizon)
	// Ingestion fails after Close; queries keep working.
	if err := sys.RecordBatch(durableBatches(w, 1, 1, horizon, 1)[0]); err == nil {
		t.Fatalf("RecordBatch succeeded on a closed durable system")
	}

	// The recovered system keeps ingesting and recovering.
	more := durableBatches(w, 5, 4, horizon, 22)
	for _, b := range more {
		if err := re.RecordBatch(b); err != nil {
			t.Fatalf("post-recovery RecordBatch: %v", err)
		}
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re2, err := OpenDurable(w, Durability{Dir: dir, Sync: policy})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer re2.Close()
	if re2.NumEvents() != re.NumEvents() {
		t.Fatalf("checkpointed recovery lost events: %d != %d", re2.NumEvents(), re.NumEvents())
	}
	assertSameAnswers(t, re, re2, horizon*1.2)
}

func TestDurableWorkloadIngest(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	wl, err := sys.GenerateWorkload(MobilityOpts{
		Objects: 40, Horizon: 5000, TripsPerObject: 3,
		MeanSpeed: 10, MeanPause: 200, LeaveProb: 0.5}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(wl); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if sys.NumEvents() != len(wl.Events) {
		t.Fatalf("durable Ingest recorded %d events, want %d", sys.NumEvents(), len(wl.Events))
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.NumEvents() != len(wl.Events) {
		t.Fatalf("recovered %d events, want %d", re.NumEvents(), len(wl.Events))
	}
	assertSameAnswers(t, sys, re, wl.Horizon)
}

// TestRestoreFlushesPlanCacheAndAdvancesEpoch is the regression test of
// the restore/epoch contract: a query plan compiled before a crash (or
// before a checkpoint-restore cycle) must never be served afterwards,
// because ServingEpoch advances strictly past the checkpointed epoch
// and the recovered system starts from an engine with an empty cache.
func TestRestoreFlushesPlanCacheAndAdvancesEpoch(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	for _, b := range durableBatches(w, 10, 5, 0, 31) {
		if err := sys.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Advance the epoch past its fresh-boot value and warm the plan
	// cache so a stale plan exists to leak.
	if err := sys.PlaceSensors(PlacementQuadTree, 20, 5); err != nil {
		t.Fatalf("PlaceSensors: %v", err)
	}
	sys.ClearPlacement()
	q := Query{Rect: centered(sys, 0.6), T1: 20, T2: 90, Kind: Transient}
	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	if hits := sys.PlanCacheStats().Hits; hits == 0 {
		t.Fatalf("plan cache not exercised (0 hits); test premise broken")
	}
	epochAtCheckpoint := sys.ServingEpoch()
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.ServingEpoch(); got <= epochAtCheckpoint {
		t.Fatalf("ServingEpoch %d not strictly past checkpointed epoch %d", got, epochAtCheckpoint)
	}
	// The recovered engine must start cold: its first answer comes from
	// a fresh compilation, not a plan cached by the previous process.
	stats := re.PlanCacheStats()
	if stats.Hits != 0 || stats.Entries != 0 {
		t.Fatalf("recovered engine serves a warm plan cache: %+v", stats)
	}
	r1, err := re.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != r2.Count {
		t.Fatalf("recovered answer %v != pre-crash answer %v", r1.Count, r2.Count)
	}
}

// The directory a build with two ingest contracts left behind over
// durableTestWorld: a checkpoint at LSN 1 and serving epoch 2 of
// olderOrderingBatches[0], with ordering byte 0 (one global order), and a
// segment holding LSN 2 an ordering change to per-edge (1), LSN 3
// olderOrderingBatches[1], LSN 4 an ordering change back to global (0)
// and LSN 5 olderOrderingBatches[2].
var (
	olderOrderingFiles = map[string]string{
		"ckpt-0000000000000001.stq": "535451434b50543103000000010000000000000002000000000000000000000000000028400300000000000000030000000000000000010000000000000000002440000000000100000000000000000100000000000000000028403d00000000010000000000000000002640000000006848efec",
		"wal-0000000000000002.seg":  "0a000000b228676f020200000000000000011e0000007e74a0f90303000000000000000301000000000000f03f010a0401011e03000219010a000000e3b352ae020400000000000000001a00000010a5a0e10305000000000000000201000000000000f03f01320206020a01",
	}
	olderOrderingBatches = [][]Event{
		{MoveEvent(0, 0, 10), EnterEvent(1, 11), MoveEvent(1, 6, 12)},
		{MoveEvent(2, 1, 5), MoveEvent(0, 0, 20), LeaveEvent(1, 7)},
		{MoveEvent(1, 6, 25), LeaveEvent(1, 30)},
	}
)

// reopenOlderOrdering opens olderOrderingFiles at the given partition
// count and requires what a fresh system fed olderOrderingBatches holds:
// the same event count and bit-identical answers, before and after both
// take a batch that goes back in time across edges — the contract the
// ordering records and byte asked for is not restored.
func reopenOlderOrdering(t *testing.T, partitions int) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	for name, h := range olderOrderingFiles {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenDurable(w, Durability{Dir: dir, Partitions: partitions})
	if err != nil {
		t.Fatalf("OpenDurable over the older directory: %v", err)
	}
	defer re.Close()
	if got := re.ServingEpoch(); got <= 2 {
		t.Fatalf("ServingEpoch %d, want past the checkpoint's 2", got)
	}
	fresh, err := NewPartitionedSystem(w, partitions)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range olderOrderingBatches {
		if err := fresh.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	same := func(step string) {
		t.Helper()
		if got, want := re.NumEvents(), fresh.NumEvents(); got != want {
			t.Fatalf("%s: %d events, want %d", step, got, want)
		}
		assertSameAnswers(t, fresh, re, 40)
	}
	same("reopened")
	late := []Event{MoveEvent(3, w.Star.Edge(3).U, 1), EnterEvent(1, 12)}
	for _, sys := range []*System{fresh, re} {
		if err := sys.RecordBatch(late); err != nil {
			t.Fatalf("a batch behind another edge's crossings refused: %v", err)
		}
	}
	same("after a late batch")
}

// TestDurableOrderingChangeRecovered: a single-store system reopens the
// ordering records and the ordering byte an older build wrote (see
// olderOrderingFiles) as if they were not there.
func TestDurableOrderingChangeRecovered(t *testing.T) { reopenOlderOrdering(t, 1) }

// TestConcurrentDurableIngestAndQuery runs concurrent durable writers,
// queries, and a checkpoint under the race detector.
func TestConcurrentDurableIngestAndQuery(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer sys.Close()
	const writers = 4
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			// Each writer owns a disjoint road stripe, so per-edge
			// ordering holds regardless of interleaving.
			rng := rand.New(rand.NewSource(int64(100 + wid)))
			tm := 0.0
			for i := 0; i < 50; i++ {
				road := EdgeID(wid + writers*rng.Intn(w.Star.NumEdges()/writers))
				e := w.Star.Edge(road)
				tm += rng.Float64()
				if err := sys.RecordBatch([]Event{MoveEvent(road, e.U, tm)}); err != nil {
					t.Errorf("writer %d: %v", wid, err)
					return
				}
			}
		}(wid)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := sys.Query(Query{Rect: centered(sys, 0.5), T1: float64(i), Kind: Snapshot}); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sys.Checkpoint(); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	want := sys.NumEvents()
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.NumEvents() != want {
		t.Fatalf("recovered %d events, want %d", re.NumEvents(), want)
	}
	assertSameAnswers(t, sys, re, 60)
}

func TestCheckpointRequiresDurable(t *testing.T) {
	sys, _ := newTestSystem(t)
	if sys.Durable() {
		t.Fatalf("plain system reports durable")
	}
	if err := sys.Checkpoint(); err == nil {
		t.Fatalf("Checkpoint succeeded on a non-durable system")
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close on non-durable system: %v", err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL on non-durable system: %v", err)
	}
}

func TestOpenDurableRejectsMismatchedWorld(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	for _, b := range durableBatches(w, 10, 5, 0, 51) {
		if err := sys.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	small, err := roadnet.GridCity(GridOpts{NX: 2, NY: 2, Spacing: 80}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(small, Durability{Dir: dir}); err == nil {
		t.Fatalf("OpenDurable accepted a checkpoint recorded against a larger world")
	}
	// The directory is untouched by the failed open: the right world
	// still recovers.
	re, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with matching world: %v", err)
	}
	re.Close()
}

// dirFiles maps every file under dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOpenDurableRefusesOlderBuildLog: a segment an older build wrote,
// whose batch records are the fixed-width type 1 (LSN 1 {Move(0, 0, 1),
// Enter(2, 2)}, LSN 2 an ordering change, LSN 3 {Leave(2, 3.5)}), fails
// OpenDurable by name, and the failed open leaves every file as it was.
func TestOpenDurableRefusesOlderBuildLog(t *testing.T) {
	seg, err := hex.DecodeString("2b00000000c6ae6e0101000000000000000200000001000000000000f03f0000000000000000000000000000000040020000000a000000b228676f020200000000000000011a000000eccbe0eb01030000000000000001000000020000000000000c4002000000")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	_, err = OpenDurable(durableTestWorld(t), Durability{Dir: dir})
	if want := "record 1 is a batch written by an older build: checkpoint with that build first"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenDurable over an older build's log: err = %v, want one containing %q", err, want)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// TestNonFiniteTimestampRefusedEverywhere: NaN and ±Inf are refused in
// one text by every store — a single one, a 4-partition one on a batch
// spanning members, in global time order (from the composite clock on,
// such a batch skips the validate phase, so only the routing pass can
// refuse it before a member applies its share) or in order per edge
// alone, and a durable one before and after a reopen — with no event
// applied and nothing logged.
func TestNonFiniteTimestampRefusedEverywhere(t *testing.T) {
	w := durableTestWorld(t)
	// Road 0 and a road another partition owns.
	probe, err := NewPartitionedSystem(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	cellOf := probe.PartitionLayout().CellOfRoad
	other := EdgeID(1)
	for cellOf[other] == cellOf[0] {
		other++
	}
	at := 1000.0
	// refuse offers batches whose last event is non-finite, then the same
	// batch without it; dir, when set, is a durable system's directory,
	// which the refused batches must leave as it was. In a batch ordered
	// per edge alone, the second event goes back in time behind the first.
	refuse := func(t *testing.T, sys *System, dir string, perEdge bool) {
		t.Helper()
		valid := []Event{MoveEvent(0, w.Star.Edge(0).U, at+1), MoveEvent(other, w.Star.Edge(other).V, at+2)}
		if perEdge {
			valid[0].T, valid[1].T = at+2, at+1
		}
		var before map[string]string
		if dir != "" {
			before = dirFiles(t, dir)
		}
		n := sys.NumEvents()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, last := range []Event{MoveEvent(0, w.Star.Edge(0).U, bad), EnterEvent(w.Gateways[0], bad)} {
				err := sys.RecordBatch(append(valid[:2:2], last))
				if want := fmt.Sprintf("core: batch event 2: timestamp %v is not finite", bad); err == nil || err.Error() != want {
					t.Fatalf("batch ending at %v: err = %v, want %q", bad, err, want)
				}
				if got := sys.NumEvents(); got != n {
					t.Fatalf("refused batch ending at %v applied %d events", bad, got-n)
				}
			}
		}
		if dir != "" && !reflect.DeepEqual(dirFiles(t, dir), before) {
			t.Fatalf("refused batches were logged")
		}
		if err := sys.RecordBatch(valid); err != nil {
			t.Fatalf("the batch without its non-finite event was refused: %v", err)
		}
		at += 10
	}

	t.Run("single", func(t *testing.T) { refuse(t, NewSystem(w), "", false) })
	for name, perEdge := range map[string]bool{"global": false, "per-edge": true} {
		t.Run("partitioned/"+name, func(t *testing.T) {
			sys, err := NewPartitionedSystem(w, 4)
			if err != nil {
				t.Fatal(err)
			}
			refuse(t, sys, "", perEdge)
		})
	}
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("durable/%d", parts), func(t *testing.T) {
			cfg := Durability{Dir: t.TempDir(), Sync: SyncAlways, Partitions: parts}
			sys, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refuse(t, sys, cfg.Dir, false)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got, want := re.NumEvents(), sys.NumEvents(); got != want {
				t.Fatalf("reopened with %d events, want %d", got, want)
			}
			refuse(t, re, cfg.Dir, false)
		})
	}
}

// unionSnapshot exports sys's whole store as one snapshot: the plain
// store's, or the union of a partitioned set's members.
func unionSnapshot(t *testing.T, sys *System) *core.StoreSnapshot {
	t.Helper()
	snap, err := sys.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// copyDir copies every file under src into a fresh directory and
// returns it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// cutOffsets returns where to cut a log segment: at every record
// boundary (its start and its end included) and once inside every
// record. A frame is a u32 payload length, a u32 CRC, then the payload.
func cutOffsets(seg []byte) []int64 {
	offs := []int64{0}
	for off := 0; off+8 <= len(seg); {
		end := off + 8 + int(binary.LittleEndian.Uint32(seg[off:]))
		if end > len(seg) {
			break
		}
		offs = append(offs, int64((off+end)/2), int64(end))
		off = end
	}
	return offs
}

// TestTruncatedLogRecoversWholeBatches: a 4-partition SyncAlways system
// writes seeded batches of uneven sizes that straddle partitions, with
// one checkpoint mid-stream. Every log segment under the directory —
// found by walking it, whatever its layout — is then cut, on a fresh
// copy of the directory each time, at every record boundary and once
// inside every record. Whatever survives a cut must be whole batches:
// the recovered event count is a prefix sum of the batch sizes, and the
// answers are bit-identical to a fresh system fed that prefix.
func TestTruncatedLogRecoversWholeBatches(t *testing.T) {
	w := durableTestWorld(t)
	cfg := Durability{Dir: t.TempDir(), Sync: SyncAlways, Partitions: 4}
	sys, err := OpenDurable(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay := sys.PartitionLayout()
	owner := func(ev Event) int {
		if ev.Kind == EventMove {
			return lay.OwnerOfRoad(ev.Road)
		}
		return lay.OwnerOfJunction(ev.Gateway)
	}
	rng := rand.New(rand.NewSource(71))
	var batches [][]Event
	wholeAfter := map[int]int{0: 0} // prefix sum of batch sizes → batches
	tm, events, straddling := 0.0, 0, 0
	for i := 0; i < 16; i++ {
		b := durableBatches(w, 1, 3+rng.Intn(7), tm, int64(100+i))[0]
		tm = b[len(b)-1].T
		owners := map[int]bool{}
		for _, ev := range b {
			owners[owner(ev)] = true
		}
		if len(owners) > 1 {
			straddling++
		}
		if err := sys.RecordBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 5 {
			if err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		batches = append(batches, b)
		events += len(b)
		wholeAfter[events] = len(batches)
	}
	if straddling < len(batches)/2 {
		t.Fatalf("only %d of %d batches straddle partitions; test premise broken", straddling, len(batches))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	var segs []string
	err = filepath.WalkDir(cfg.Dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") && strings.HasSuffix(d.Name(), ".seg") {
			rel, _ := filepath.Rel(cfg.Dir, path)
			segs = append(segs, rel)
		}
		return err
	})
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segments under %s (err %v)", cfg.Dir, err)
	}
	cuts := 0
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(cfg.Dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range cutOffsets(data) {
			dir := copyDir(t, cfg.Dir)
			if err := os.Truncate(filepath.Join(dir, seg), off); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurable(w, Durability{Dir: dir, Partitions: cfg.Partitions})
			if err != nil {
				t.Fatalf("%s cut at %d of %d: OpenDurable: %v", seg, off, len(data), err)
			}
			k, whole := wholeAfter[re.NumEvents()]
			if !whole {
				t.Fatalf("%s cut at %d of %d: recovered %d events, which is no prefix of whole batches", seg, off, len(data), re.NumEvents())
			}
			ref := NewSystem(w)
			for _, b := range batches[:k] {
				if err := ref.RecordBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			assertSameAnswers(t, ref, re, tm)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			cuts++
		}
	}
	t.Logf("%d cuts over %d segments", cuts, len(segs))
}

// TestClosedDurableSystemRefusesIngest: after Close, RecordBatch fails
// before it applies anything — the event count stays where it was — and
// a reopen holds exactly the events ingested before Close.
func TestClosedDurableSystemRefusesIngest(t *testing.T) {
	w := durableTestWorld(t)
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			cfg := Durability{Dir: t.TempDir(), Sync: SyncAlways, Partitions: parts}
			sys, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batches := durableBatches(w, 3, 6, 0, 61)
			ref := NewSystem(w)
			for _, b := range batches[:2] {
				if err := sys.RecordBatch(b); err != nil {
					t.Fatal(err)
				}
				if err := ref.RecordBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			want := sys.NumEvents()
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sys.RecordBatch(batches[2]); err == nil {
				t.Fatal("RecordBatch succeeded after Close")
			}
			if got := sys.NumEvents(); got != want {
				t.Fatalf("NumEvents = %d after refused ingestion, want %d", got, want)
			}
			re, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.NumEvents(); got != want {
				t.Fatalf("reopened with %d events, want %d", got, want)
			}
			assertSameAnswers(t, ref, re, 2*6*3)
		})
	}
}

// TestFailedAppendCreditsSealer: a durable system appends a batch
// before it applies it, so a batch the log could not take applied
// nothing — no event in the store, none credited to the background
// sealer — and once the log takes appends again the same batch applies.
func TestFailedAppendCreditsSealer(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableTieredHistory(HistoryConfig{Tick: 1, HotKeep: 2, SealThreshold: 8, AutoSealEvery: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := sys.log.Close(); err != nil {
		t.Fatal(err)
	}
	batch := durableBatches(w, 1, 6, 0, 62)[0]
	if err := sys.RecordBatch(batch); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("RecordBatch over a failed log: err = %v, want ErrNotDurable", err)
	}
	if got, n := sys.sealPending.Load(), sys.NumEvents(); got != 0 || n != 0 {
		t.Fatalf("sealer credited with %d events, store holds %d; want 0 and 0: nothing applied", got, n)
	}
	if sys.log, _, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RecordBatch(batch); err != nil {
		t.Fatalf("the same batch once the log takes appends: %v", err)
	}
	if got, n := sys.sealPending.Load(), sys.NumEvents(); got != 6 || n != 6 {
		t.Fatalf("sealer credited with %d events, store holds %d; want 6 and 6", got, n)
	}
}

// TestFailedAppendAppliesNothingPartitioned: on a partitioned durable
// system the log append runs after routing and phase 1 and before any
// member applies, so a failed append applies nothing — on the
// single-member path and across members — and the same batches apply
// once the log takes appends.
func TestFailedAppendAppliesNothingPartitioned(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	lay := sys.PartitionLayout()
	move := func(p int, t0 float64) Event {
		road := roadOwnedBy(t, lay, p)
		return MoveEvent(road, w.Star.Edge(road).U, t0)
	}
	batches := map[string][]Event{
		"one member":  {move(0, 1), move(0, 2)},
		"two members": {move(1, 3), move(2, 4)},
	}
	if err := sys.log.Close(); err != nil {
		t.Fatal(err)
	}
	for name, b := range batches {
		if err := sys.RecordBatch(b); !errors.Is(err, ErrNotDurable) {
			t.Errorf("%s over a failed log: err = %v, want ErrNotDurable", name, err)
		}
		if n := sys.NumEvents(); n != 0 {
			t.Fatalf("%s over a failed log applied %d events, want 0", name, n)
		}
	}
	if sys.log, _, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for name, b := range batches {
		if err := sys.RecordBatch(b); err != nil {
			t.Errorf("%s once the log takes appends: %v", name, err)
		}
	}
	if n := sys.NumEvents(); n != 4 {
		t.Errorf("store holds %d events, want 4", n)
	}
}

// TestCheckpointRenameFailure: a checkpoint whose final rename fails —
// the disk-full half of a checkpoint, here a directory standing at the
// checkpoint's name — is refused by Checkpoint and by the server's
// Drain, leaves no temporary file behind, and costs nothing acknowledged:
// the log keeps taking batches, a reopen recovers every one of them
// bit-identically, and a checkpoint succeeds once the name is free.
func TestCheckpointRenameFailure(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			w := durableTestWorld(t)
			cfg := Durability{Dir: t.TempDir(), Partitions: parts}
			sys, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batches := durableBatches(w, 4, 6, 0, 64)
			ref := NewSystem(w)
			record := func(sys *System, bs [][]Event) {
				t.Helper()
				for _, b := range bs {
					if err := sys.RecordBatch(b); err != nil {
						t.Fatal(err)
					}
					if err := ref.RecordBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			record(sys, batches[:2])
			block := filepath.Join(cfg.Dir, fmt.Sprintf("ckpt-%016x.stq", sys.log.LastLSN()))
			if err := os.Mkdir(block, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := sys.Checkpoint(); err == nil || !strings.Contains(err.Error(), "rename") {
				t.Fatalf("Checkpoint over a failing rename: err = %v, want the rename's", err)
			}
			if err := NewServer(sys, ServerConfig{}).Drain(); err == nil {
				t.Fatal("Drain succeeded over a failing checkpoint rename")
			}
			if tmp, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.tmp")); len(tmp) != 0 {
				t.Fatalf("failed checkpoints left %v behind", tmp)
			}
			record(sys, batches[2:])
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := re.NumEvents(), ref.NumEvents(); got != want {
				t.Fatalf("reopened with %d events, want %d", got, want)
			}
			assertSameAnswers(t, ref, re, 4*6*3)
			if err := os.Remove(block); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint once the name is free: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenDurable(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			assertSameAnswers(t, ref, again, 4*6*3)
		})
	}
}
