package wal_test

// Crash-injection torture test of the durability subsystem: write a
// batched event stream through the WAL exactly as stq's durable
// ingestion does ({apply, append} pairs in one serialized order),
// checkpoint at a seeded position, kill the process at a seeded byte
// offset (simulated by truncating the active segment), and require the
// recovered system (stq.OpenDurable) to answer bit-identically to a
// reference system fed exactly the surviving event prefix. Offsets come
// from crashSchedule, so every failing point reproduces from its
// seed alone. Runs under -race in CI (make check).

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	stq "repro"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/wal"
)

const (
	tortureBatches  = 24
	torturePerBatch = 5
	// Crash points, half over each stream of tortureBatchesFor; they
	// must clear the ≥100-point acceptance bar.
	torturePoints = 120
)

func tortureWorld(t *testing.T) *roadnet.World {
	t.Helper()
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 4, NY: 4, Spacing: 100}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatalf("GridCity: %v", err)
	}
	return w
}

// tortureBatchesFor builds a deterministic batched event stream. With
// clocked set, every tracking-form direction runs on a clock of its own,
// so the stream goes back in time from one edge to the next (never
// along one); without it, timestamps are globally non-decreasing.
func tortureBatchesFor(w *roadnet.World, seed int64, clocked bool) [][]core.Event {
	rng := rand.New(rand.NewSource(seed))
	tm := 0.0
	// clocks is keyed by an event with its timestamp zeroed: its
	// direction.
	clocks := map[core.Event]float64{}
	out := make([][]core.Event, 0, tortureBatches)
	for i := 0; i < tortureBatches; i++ {
		var batch []core.Event
		for j := 0; j < torturePerBatch; j++ {
			var ev core.Event
			switch rng.Intn(4) {
			case 0:
				ev = core.EnterEvent(w.Gateways[rng.Intn(len(w.Gateways))], 0)
			case 1:
				ev = core.LeaveEvent(w.Gateways[rng.Intn(len(w.Gateways))], 0)
			default:
				road := rng.Intn(w.Star.NumEdges())
				e := w.Star.Edge(stq.EdgeID(road))
				from := e.U
				if rng.Intn(2) == 0 {
					from = e.V
				}
				ev = core.MoveEvent(stq.EdgeID(road), from, 0)
			}
			if clocked {
				clocks[ev] += rng.Float64() * 4
				ev.T = clocks[ev]
			} else {
				tm += rng.Float64() * 4
				ev.T = tm
			}
			batch = append(batch, ev)
		}
		out = append(out, batch)
	}
	return out
}

// lastSegment returns the path of the newest log segment in dir.
// Fixed-width hex names make lexicographic order equal LSN order.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// answersMatch requires bit-identical answers from the recovered and
// reference systems across regions, times, and query kinds.
func answersMatch(t *testing.T, ref, got *stq.System, horizon float64) {
	t.Helper()
	b := ref.Bounds()
	for _, frac := range []float64{0.5, 0.9} {
		c := b.Center()
		wd, ht := b.Width()*frac, b.Height()*frac
		rect := stq.Rect{
			Min: stq.Point{X: c.X - wd/2, Y: c.Y - ht/2},
			Max: stq.Point{X: c.X + wd/2, Y: c.Y + ht/2},
		}
		for _, tf := range []float64{0.3, 0.7, 1.0} {
			for _, kind := range []stq.Kind{stq.Snapshot, stq.Transient, stq.Static} {
				q := stq.Query{Rect: rect, T1: tf * horizon * 0.4, T2: tf * horizon, Kind: kind}
				rw, err := ref.Query(q)
				if err != nil {
					t.Fatalf("reference query: %v", err)
				}
				rg, err := got.Query(q)
				if err != nil {
					t.Fatalf("recovered query: %v", err)
				}
				if rw.Count != rg.Count || rw.Missed != rg.Missed {
					t.Fatalf("%v frac=%v tf=%v: recovered %v/%v != reference %v/%v",
						kind, frac, tf, rg.Count, rg.Missed, rw.Count, rw.Missed)
				}
			}
		}
	}
}

// TestTortureCrashRecovery splits its points between two streams, each
// named for the order it keeps: OrderGlobal feeds one in global time
// order, OrderPerEdge one ordered per edge direction alone. Both run
// under the one ingest contract, on disjoint halves of the schedule.
func TestTortureCrashRecovery(t *testing.T) {
	w := tortureWorld(t)
	schedule := crashSchedule{Seed: 4242}
	for i, name := range []string{"OrderGlobal", "OrderPerEdge"} {
		t.Run(name, func(t *testing.T) {
			batches := tortureBatchesFor(w, 97, i == 1)
			horizon := 0.0
			for _, b := range batches {
				for _, ev := range b {
					horizon = max(horizon, ev.T)
				}
			}
			for k := i * torturePoints / 2; k < (i+1)*torturePoints/2; k++ {
				torturePoint(t, w, schedule, batches, horizon, k)
			}
		})
	}
}

// crashSchedule maps a (seed, crash point) pair to the byte offset at
// which the torture test cuts the write-ahead log, simulating a kill at
// an arbitrary instant of an append. Offsets are a pure function of the
// schedule, so a failing crash point reproduces from its seed alone.
type crashSchedule struct {
	// Seed drives every offset of the schedule.
	Seed int64
}

// Offset returns the crash offset of point k against a file of the
// given size, uniform over [0, size]. size (and offset 0) are legal
// outcomes: a crash exactly at the end loses nothing, a crash at zero
// loses the whole file — both must recover cleanly.
func (c crashSchedule) Offset(k int, size int64) int64 {
	if size <= 0 {
		return 0
	}
	// Mix the point index into the seed with a 64-bit odd constant
	// (SplitMix64's golden-ratio increment) so adjacent points do not
	// produce correlated rand streams.
	seed := c.Seed ^ (int64(k)+1)*-0x61c8864680b583eb
	return rand.New(rand.NewSource(seed)).Int63n(size + 1)
}

func TestCrashScheduleDeterministic(t *testing.T) {
	a := crashSchedule{Seed: 42}
	b := crashSchedule{Seed: 42}
	for k := 0; k < 200; k++ {
		if got, want := b.Offset(k, 1<<20), a.Offset(k, 1<<20); got != want {
			t.Fatalf("point %d: %d != %d (same seed must reproduce)", k, got, want)
		}
	}
}

func TestCrashScheduleBoundsAndSpread(t *testing.T) {
	c := crashSchedule{Seed: 7}
	const size = int64(1000)
	seen := make(map[int64]bool)
	for k := 0; k < 500; k++ {
		off := c.Offset(k, size)
		if off < 0 || off > size {
			t.Fatalf("point %d: offset %d outside [0,%d]", k, off, size)
		}
		seen[off] = true
	}
	if len(seen) < 100 {
		t.Fatalf("offsets badly clustered: only %d distinct values of 500 draws", len(seen))
	}
	if c.Offset(3, 0) != 0 || c.Offset(3, -5) != 0 {
		t.Fatalf("empty file must crash at offset 0")
	}
	// Different seeds disagree somewhere early.
	d := crashSchedule{Seed: 8}
	same := true
	for k := 0; k < 20 && same; k++ {
		same = c.Offset(k, size) == d.Offset(k, size)
	}
	if same {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// torturePoint runs crash point k of the schedule over batches.
func torturePoint(t *testing.T, w *roadnet.World, schedule crashSchedule, batches [][]core.Event, horizon float64, k int) {
	pointRng := rand.New(rand.NewSource(schedule.Seed + int64(k)))
	// Checkpoint after batch j; -1 skips the checkpoint so
	// pure-log recovery is exercised too.
	j := pointRng.Intn(tortureBatches+4) - 4

	dir := t.TempDir()
	l, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("point %d: Open: %v", k, err)
	}
	if rec.Checkpoint != nil || len(rec.Records) > 0 {
		t.Fatalf("point %d: fresh dir not empty", k)
	}
	store := core.NewStore(w)

	// Seal-during-crash schedule point: a third of the points
	// run the tiered-history sealer at a seeded batch index,
	// so checkpoints taken afterwards carry compact sealed
	// segments and recovery must stay bit-identical with
	// sealing enabled (DESIGN.md §12).
	sealAt := -1
	if k%3 == 0 {
		sealAt = pointRng.Intn(tortureBatches)
		if err := store.SetHistoryConfig(core.HistoryConfig{
			Tick: 1.0 / 1024, HotKeep: 1, SealThreshold: 2,
		}); err != nil {
			t.Fatalf("point %d: SetHistoryConfig: %v", k, err)
		}
	}

	// Write phase: the exact {apply, append} discipline of
	// stq's durable ingestion, tracking each batch's end
	// offset in the active segment.
	type mark struct {
		seg uint64
		end int64
	}
	marks := make([]mark, 0, len(batches))
	for i, b := range batches {
		if err := store.RecordBatch(b); err != nil {
			t.Fatalf("point %d: apply %d: %v", k, i, err)
		}
		if _, err := l.AppendBatch(b); err != nil {
			t.Fatalf("point %d: append %d: %v", k, i, err)
		}
		seg, end := l.Tell()
		marks = append(marks, mark{seg: seg, end: end})
		if i == sealAt {
			store.SealColdPrefixes()
		}
		if i == j {
			if err := l.WriteCheckpoint(store.ExportSnapshot(), 5, 0); err != nil {
				t.Fatalf("point %d: checkpoint: %v", k, err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("point %d: Sync: %v", k, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("point %d: Close: %v", k, err)
	}

	// Crash: cut the active segment at a scheduled offset.
	seg := lastSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("point %d: stat: %v", k, err)
	}
	crashOff := schedule.Offset(k, st.Size())
	if err := os.Truncate(seg, crashOff); err != nil {
		t.Fatalf("point %d: truncate: %v", k, err)
	}

	// The survivors are a prefix: every batch sealed in an
	// earlier segment (covered by the checkpoint that caused
	// the rotation), plus the final-segment batches whose
	// frames end at or before the cut.
	finalSeg, _ := l.Tell()
	survivors := 0
	for _, m := range marks {
		if m.seg < finalSeg || m.end <= crashOff {
			survivors++
		} else {
			break
		}
	}

	re, err := stq.OpenDurable(w, stq.Durability{Dir: dir})
	if err != nil {
		t.Fatalf("point %d (ckpt after %d, cut %d/%d): OpenDurable: %v",
			k, j, crashOff, st.Size(), err)
	}
	ref := stq.NewSystem(w)
	wantEvents := 0
	for _, b := range batches[:survivors] {
		if err := ref.RecordBatch(b); err != nil {
			t.Fatalf("point %d: reference ingest: %v", k, err)
		}
		wantEvents += len(b)
	}
	// No lost prefix, no double-applied batch.
	if got := re.NumEvents(); got != wantEvents {
		t.Fatalf("point %d (ckpt after %d, cut %d/%d): recovered %d events, want %d",
			k, j, crashOff, st.Size(), got, wantEvents)
	}
	answersMatch(t, ref, re, horizon)
	if err := re.Close(); err != nil {
		t.Fatalf("point %d: Close: %v", k, err)
	}
}
