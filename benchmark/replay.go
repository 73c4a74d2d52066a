package main

import (
	"fmt"
	"path/filepath"
	"time"

	stq "repro"
)

// replayOp is what the sequential traced replay measured for one op.
type replayOp struct {
	kind   opKind
	events int   // ingest: events in the batch
	e2e    int64 // the client's whole op, ns
	// Harness side of a served op: encode, HTTP round trip, decode.
	enc, do, dec        int64
	reqBytes, respBytes int64
	// serve is the front handler's span (0 on engine workloads).
	serve int64
	// Cluster side of a routed op: the cell handler spans it caused.
	rpcs, cellsTouched             int
	cellBusy, cellUnion, cellBytes int64
	ingestReqBytes                 int64
	// direct is the same op called on the twin's System in-process,
	// right before or after the front answered it.
	direct int64
	// engine is the engine's own trace of the front's call (System.Query
	// entry to return), read from the registry; 0 for ingest.
	engine int64
}

// phaseMeans are per-query means of the engine's trace phases, in ns.
type phaseMeans struct {
	regionBuild, perimeter, network, total float64
}

// replayData is the traced run's raw material; layermetrics.go names it.
type replayData struct {
	ops []replayOp
	// obs covers exactly the recorded ops of the front replay.
	obs          stq.ObsSnapshot
	plan0, plan1 stq.PlanCacheStats
	// phases are from the front's calls; perimeterByKind from the twin's
	// per-kind passes.
	phases          phaseMeans
	perimeterByKind [3]float64
	spans           *spanLog
}

// replayClient walks client 0's stream one op at a time.
type replayClient struct {
	in          *inputs
	call        caller
	idx         int
	cursor, lap int
	evbuf       []stq.Event
}

// next issues the next op and returns it with its latency. A failed or
// wrongly answered op aborts the replay: the traced run measures a
// correct program or nothing.
func (c *replayClient) next() (o *op, events int, start, end time.Time, err error) {
	ops := c.in.clients[0].ops
	o = &ops[c.idx%len(ops)]
	c.idx++
	if o.kind == opIngest {
		c.evbuf = c.in.nextBatch(0, &c.cursor, &c.lap, c.in.spec.batchEvents, c.evbuf)
		start = time.Now()
		_, err = c.call.ingest(c.evbuf)
		return o, len(c.evbuf), start, time.Now(), err
	}
	start = time.Now()
	got, _, err := c.call.query(o.q)
	end = time.Now()
	if err == nil && got != o.want {
		err = fmt.Errorf("replay op %d (%s): answered %+v, reference %+v", c.idx-1, opKindNames[o.kind], got, o.want)
	}
	return o, 0, start, end, err
}

// replayWarmup is the unrecorded prefix of a replay: it fills the plan
// cache and lets lazy set-up finish before spans are kept.
func replayWarmup(sc scale) int { return sc.replayOps / 10 }

// tracedReplay replays the first replayOps ops of client 0's stream, one
// at a time, through a fresh deployment with span-recording handlers
// installed, and each op again as a direct System call on a fresh twin
// that stops short of the front server. Front and twin take turns op by
// op, so the two timings of an op are taken under the same conditions
// and their difference is the layers between them. Observability is on
// for the front's ops only: the registry then describes exactly the
// calls the spans describe.
func tracedReplay(in *inputs, tmp string) (*replayData, error) {
	rd := &replayData{spans: newSpanLog(), ops: make([]replayOp, in.sc.replayOps)}
	defer stq.DisableObservability()
	d, err := boot(in, bootOpts{spans: rd.spans, dir: filepath.Join(tmp, "replay")})
	if err != nil {
		return nil, err
	}
	defer d.close()
	twin, err := boot(in, bootOpts{noFront: true, dir: filepath.Join(tmp, "twin")})
	if err != nil {
		return nil, err
	}
	defer twin.close()
	if err := rd.replay(d, twin); err != nil {
		return nil, err
	}
	if err := rd.perimeterPasses(twin); err != nil {
		return nil, err
	}
	if err := twin.close(); err != nil {
		return nil, err
	}
	return rd, d.close()
}

func (rd *replayData) replay(d, twin *deployment) error {
	in := d.in
	c := &replayClient{in: in, call: newCaller(d)}
	defer c.call.close()
	tc := &replayClient{in: in, call: &inprocCaller{sys: twin.sys}}
	for i := 0; i < replayWarmup(in.sc); i++ {
		if _, _, _, _, err := c.next(); err != nil {
			return err
		}
		if _, _, _, _, err := tc.next(); err != nil {
			return err
		}
	}
	stq.ResetObservability()
	rd.plan0 = d.sys.PlanCacheStats()
	l := rd.spans
	traced := 0.0 // seconds of engine trace recorded so far
	frontOp := func(i int) error {
		l.op.Store(int64(i))
		s0 := c.call.stats()
		stq.EnableObservability()
		o, events, start, end, err := c.next()
		stq.DisableObservability()
		l.op.Store(-1)
		if err != nil {
			return err
		}
		s1 := c.call.stats()
		r := &rd.ops[i]
		r.kind, r.events, r.e2e = o.kind, events, int64(end.Sub(start))
		if o.kind != opIngest {
			sum := histSum(d.sys.Snapshot(), "query.latency_seconds")
			r.engine, traced = int64((sum-traced)*1e9), sum
		}
		r.enc, r.do, r.dec = s1.encNs-s0.encNs, s1.doNs-s0.doNs, s1.decNs-s0.decNs
		r.reqBytes, r.respBytes = s1.reqBytes-s0.reqBytes, s1.respBytes-s0.respBytes
		// The client's spans, laid end to end from the op's start: the
		// durations are measured, the offsets follow from them.
		t := l.since(start)
		l.add(span{Op: i, Layer: "client", Kind: opKindNames[o.kind], Start: t, End: l.since(end)})
		if d.srv != nil {
			l.add(span{Op: i, Layer: "client.encode", Parent: "client", Start: t, End: t + r.enc})
			l.add(span{Op: i, Layer: "net", Parent: "client", Start: t + r.enc, End: t + r.enc + r.do,
				ReqBytes: int(r.reqBytes), RespBytes: int(r.respBytes)})
			l.add(span{Op: i, Layer: "client.decode", Parent: "client", Start: t + r.enc + r.do, End: t + r.enc + r.do + r.dec})
		}
		return nil
	}
	twinOp := func(i int) error {
		_, _, start, end, err := tc.next()
		if err != nil {
			return err
		}
		rd.ops[i].direct = int64(end.Sub(start))
		l.add(span{Op: i, Layer: "stq.direct", Parent: "serve", Start: l.since(start), End: l.since(end)})
		return nil
	}
	for i := range rd.ops {
		// Whichever of the two goes second finds caches and branch
		// predictors trained by the first; alternating the order keeps
		// that out of the median difference.
		first, second := frontOp, twinOp
		if i%2 == 1 {
			first, second = twinOp, frontOp
		}
		if err := first(i); err != nil {
			return err
		}
		if err := second(i); err != nil {
			return err
		}
	}
	rd.obs = d.sys.Snapshot()
	rd.plan1 = d.sys.PlanCacheStats()
	if n := float64(rd.obs.Histograms["query.latency_seconds"].Count); n > 0 {
		rd.phases = phaseMeans{
			regionBuild: histSum(rd.obs, "query.phase.region_build_seconds") * 1e9 / n,
			perimeter:   histSum(rd.obs, "query.phase.perimeter_integration_seconds") * 1e9 / n,
			network:     histSum(rd.obs, "query.phase.network_collection_seconds") * 1e9 / n,
			total:       histSum(rd.obs, "query.latency_seconds") * 1e9 / n,
		}
	}

	// Fold the handler spans into their ops.
	l.mu.Lock()
	defer l.mu.Unlock()
	cellSpans := make([][]span, len(rd.ops))
	for _, s := range l.spans {
		switch s.Layer {
		case "serve":
			rd.ops[s.Op].serve += s.dur()
		case "cell":
			cellSpans[s.Op] = append(cellSpans[s.Op], s)
		}
	}
	for i, cs := range cellSpans {
		r := &rd.ops[i]
		var touched [cells]bool
		for _, s := range cs {
			r.rpcs++
			r.cellBusy += s.dur()
			r.cellBytes += int64(s.ReqBytes + s.RespBytes)
			if s.Detail == "/v1/ingest" {
				r.ingestReqBytes += int64(s.ReqBytes)
			}
			if !touched[*s.Cell] {
				touched[*s.Cell] = true
				r.cellsTouched++
			}
		}
		r.cellUnion = unionNs(cs)
	}
	return nil
}

func histSum(s stq.ObsSnapshot, name string) float64 {
	return s.Histograms[name].Sum
}

// perimeterPasses measures perimeter integration per query kind: each
// kind's recorded queries are replayed alone on the twin, so the phase
// histogram holds that kind only.
func (rd *replayData) perimeterPasses(twin *deployment) error {
	in := twin.in
	ops := in.clients[0].ops
	stq.EnableObservability()
	defer stq.DisableObservability()
	for k := opSnapshot; k <= opTransient; k++ {
		stq.ResetObservability()
		n := 0
		for i := range rd.ops {
			o := &ops[(replayWarmup(in.sc)+i)%len(ops)]
			if o.kind != k {
				continue
			}
			if _, err := twin.sys.Query(o.q); err != nil {
				return err
			}
			n++
		}
		if n > 0 {
			rd.perimeterByKind[k] = histSum(twin.sys.Snapshot(), "query.phase.perimeter_integration_seconds") * 1e9 / float64(n)
		}
	}
	return nil
}
