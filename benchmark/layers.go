package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	stq "repro"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/wal"
	"repro/internal/wire"
)

// This file times single modules on scratch instances, from outside,
// through their public functions, on the inputs the traced replay used.
// Each figure is the mean over those inputs after one untimed pass.

// replayInputs regenerates the recorded part of client 0's stream: its
// query ops and its ingest batches, in order.
func replayInputs(in *inputs) (queries []op, batches [][]stq.Event) {
	var cursor, lap int
	ops := in.clients[0].ops
	for i := 0; i < replayWarmup(in.sc)+in.sc.replayOps; i++ {
		o := ops[i%len(ops)]
		recorded := i >= replayWarmup(in.sc)
		if o.kind == opIngest {
			b := in.nextBatch(0, &cursor, &lap, in.spec.batchEvents, nil)
			if recorded {
				batches = append(batches, b)
			}
		} else if recorded {
			queries = append(queries, o)
		}
	}
	return queries, batches
}

func countEvents(batches [][]stq.Event) (n int) {
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// timeIt runs f once untimed, then times one more pass.
func timeIt(f func()) time.Duration {
	f()
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// wireCosts are the codec costs of the wire module.
type wireCosts struct {
	encQueryNs, decQueryNs, encResultNs, decResultNs float64
	encIngestNsPerEvent, decIngestNsPerEvent         float64
	allocsPerFrame                                   float64
}

func measureWire(queries []op, batches [][]stq.Event) (wireCosts, error) {
	var c wireCosts
	var enc wire.Encoder
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	qframes := make([]wire.QueryFrame, len(queries))
	rframes := make([]wire.ResultFrame, len(queries))
	qbytes := make([][]byte, len(queries))
	rbytes := make([][]byte, len(queries))
	for i, o := range queries {
		qframes[i] = wire.QueryFrame{
			Rect: [4]float64{o.q.Rect.Min.X, o.q.Rect.Min.Y, o.q.Rect.Max.X, o.q.Rect.Max.Y},
			T1:   o.q.T1, T2: o.q.T2, Kind: wireKinds[o.kind], Bound: wire.BoundLower,
		}
		a := o.want
		rframes[i] = wire.ResultFrame{
			Count: a.Count, Missed: a.Missed, RegionFaces: a.RegionFaces, NodesAccessed: a.NodesAccessed,
			Messages: a.Messages, Hops: a.Hops, TotalHops: a.TotalHops, EdgesAccessed: a.EdgesAccessed,
		}
		qbytes[i] = wire.MarshalQuery(qframes[i])
		rbytes[i] = wire.MarshalResult(rframes[i])
	}
	ibytes := make([][]byte, len(batches))
	for i, b := range batches {
		ibytes[i] = wire.MarshalIngest(b, wire.DefaultTick)
	}
	var err error
	payloadOf := func(frame []byte) []byte {
		_, payload, _, perr := wire.ParseFrame(frame)
		if perr != nil && err == nil {
			err = perr
		}
		return payload
	}
	if n := float64(len(queries)); n > 0 {
		c.encQueryNs = float64(timeIt(func() {
			for _, f := range qframes {
				enc.EncodeQuery(f)
			}
		})) / n
		c.decQueryNs = float64(timeIt(func() {
			for _, b := range qbytes {
				if _, derr := wire.DecodeQuery(payloadOf(b)); derr != nil && err == nil {
					err = derr
				}
			}
		})) / n
		c.encResultNs = float64(timeIt(func() {
			for _, f := range rframes {
				enc.EncodeResult(f)
			}
		})) / n
		c.decResultNs = float64(timeIt(func() {
			for _, b := range rbytes {
				if _, derr := wire.DecodeResult(payloadOf(b)); derr != nil && err == nil {
					err = derr
				}
			}
		})) / n
	}
	if ev := float64(countEvents(batches)); ev > 0 {
		c.encIngestNsPerEvent = float64(timeIt(func() {
			for _, b := range batches {
				enc.EncodeIngest(b, wire.DefaultTick)
			}
		})) / ev
		decodeAll := func() {
			for _, b := range ibytes {
				if _, derr := dec.DecodeIngest(payloadOf(b)); derr != nil && err == nil {
					err = derr
				}
			}
		}
		c.decIngestNsPerEvent = float64(timeIt(decodeAll)) / ev
		// Steady-state allocations of one ingest frame through the pooled
		// codec, encode plus decode.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, b := range batches {
			enc.EncodeIngest(b, wire.DefaultTick)
		}
		decodeAll()
		runtime.ReadMemStats(&m1)
		c.allocsPerFrame = float64(m1.Mallocs-m0.Mallocs) / float64(len(batches))
	}
	return c, err
}

// measureScatterCodec times decode+encode of every captured router→cell
// exchange (scatter request and partial response; ingest sub-batches
// and their acknowledgements are ingest frames and count there) and
// returns the mean per exchange.
func measureScatterCodec(rpcs []capturedRPC) (float64, error) {
	var enc wire.Encoder
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	n := 0
	var err error
	pass := func() {
		n = 0
		for _, r := range rpcs {
			if r.path != "/v1/cell" {
				continue
			}
			kind, payload, _, perr := wire.ParseFrame(r.req)
			if perr != nil || kind != wire.KindScatter {
				continue
			}
			sf, derr := dec.DecodeScatter(payload)
			if derr != nil {
				err = derr
				return
			}
			enc.EncodeScatter(sf)
			kind, payload, _, perr = wire.ParseFrame(r.resp)
			if perr != nil || kind != wire.KindPartial {
				continue
			}
			pf, derr := wire.DecodePartial(payload)
			if derr != nil {
				err = derr
				return
			}
			enc.EncodePartial(pf)
			n++
		}
	}
	d := timeIt(pass)
	if err != nil || n == 0 {
		return 0, err
	}
	return float64(d) / float64(n), nil
}

// storeCosts are direct ingest costs of core and partition.
type storeCosts struct {
	coreNsPerEvent, splitNsPerEvent float64
	crossBatchFrac                  float64
}

// measureStores feeds the replay's batches to a scratch core.Store and
// a scratch partition.Set over the same world. partition's own cost is
// what RecordBatchSplit takes beyond core.RecordBatch on the same
// events.
func measureStores(in *inputs, batches [][]stq.Event) (storeCosts, error) {
	var c storeCosts
	ev := float64(countEvents(batches))
	if ev == 0 {
		return c, nil
	}
	w, err := buildWorld(in.gridOpts)
	if err != nil {
		return c, err
	}
	st := core.NewStore(w)
	st.SetOrdering(core.OrderPerEdge)
	t0 := time.Now()
	for _, b := range batches {
		if err := st.RecordBatch(b); err != nil {
			return c, fmt.Errorf("scratch store: %w", err)
		}
	}
	c.coreNsPerEvent = float64(time.Since(t0)) / ev

	lay, err := partition.Build(w, durablePartition)
	if err != nil {
		return c, err
	}
	set := partition.NewSet(w, lay)
	set.SetOrdering(core.OrderPerEdge)
	cross := 0
	t0 = time.Now()
	for _, b := range batches {
		subs, err := set.RecordBatchSplit(b)
		if err != nil {
			return c, fmt.Errorf("scratch set: %w", err)
		}
		parts := 0
		for _, s := range subs {
			if len(s) > 0 {
				parts++
			}
		}
		if parts > 1 {
			cross++
		}
	}
	c.splitNsPerEvent = float64(time.Since(t0))/ev - c.coreNsPerEvent
	c.crossBatchFrac = float64(cross) / float64(len(batches))
	return c, nil
}

// measurePartitionQueries answers pooled queries on a 4-partition and
// on an unpartitioned System, both loaded like the deployment, and
// returns how many times longer the partitioned one takes.
func measurePartitionQueries(in *inputs, queries []op) (float64, error) {
	if len(queries) > 512 {
		queries = queries[:512]
	}
	run := func(parts int) (time.Duration, error) {
		w, err := buildWorld(in.gridOpts)
		if err != nil {
			return 0, err
		}
		sys, err := stq.NewPartitionedSystem(w, parts)
		if err != nil {
			return 0, err
		}
		if err := loadSystem(sys, in, nil, 0); err != nil {
			return 0, err
		}
		var qerr error
		d := timeIt(func() {
			for _, o := range queries {
				if _, err := sys.Query(o.q); err != nil && qerr == nil {
					qerr = err
				}
			}
		})
		return d, qerr
	}
	single, err := run(1)
	if err != nil {
		return 0, err
	}
	split, err := run(durablePartition)
	if err != nil || single == 0 {
		return 0, err
	}
	return float64(split) / float64(single), nil
}

// measureWAL appends the replay's batches to a scratch log under the
// deployment's sync policy and returns the mean µs per AppendBatch.
func measureWAL(tmp string, batches [][]stq.Event) (float64, error) {
	if len(batches) == 0 {
		return 0, nil
	}
	l, _, err := wal.Open(filepath.Join(tmp, "scratch-wal"), wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, b := range batches {
		if _, err := l.AppendBatch(b); err != nil {
			l.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	if err := l.Close(); err != nil {
		return 0, err
	}
	return float64(d) / 1e3 / float64(len(batches)), nil
}
