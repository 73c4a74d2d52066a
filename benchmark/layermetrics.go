package main

import (
	"math"
	"time"
)

// put stores a per-layer metric under its declared unit, if the metric
// exists on this workload.
func put(m map[string]metric, spec workloadSpec, name string, v float64, samples int64) {
	for _, d := range perLayer {
		if d.name == name {
			if d.scope.covers(spec) && !math.IsNaN(v) && !math.IsInf(v, 0) {
				m[name] = metric{Value: v, Unit: d.unit, Samples: samples}
			}
			return
		}
	}
	panic("undeclared per-layer metric " + name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadedLayerMetrics names what the driven phase of a traced run
// measured: tails over the obs-off (even) slices, serving and runtime
// counters over the whole phase, registry counters over the obs-on
// (odd) slices.
func loadedLayerMetrics(m map[string]metric, spec workloadSpec, res *runResult, mem memoryStats, ckptBytes int64, rcv *recovery) {
	var q, ing hist
	var ops int64
	for k := range res.slices {
		ops += res.slices[k].ops()
		if evenSlices(k) {
			q.merge(queryHist(&res.slices[k]))
			ing.merge(&res.slices[k].lat[opIngest])
		}
	}
	put(m, spec, "client.query_p99_us", q.quantile(0.99)/1e3, int64(q.n))
	put(m, spec, "client.query_p999_us", q.quantile(0.999)/1e3, int64(q.n))
	put(m, spec, "client.ingest_p99_us", ing.quantile(0.99)/1e3, int64(ing.n))
	quiet := &quietWindow(res).lat[opIngest]
	put(m, spec, "ingest_p95_us", quiet.quantile(0.95)/1e3, int64(quiet.n))

	s0, s1 := res.srv0, res.srv1
	put(m, spec, "serve.coalesced_frac", ratio(float64(s1.Coalesced-s0.Coalesced), float64(s1.QueryExecs-s0.QueryExecs+s1.Coalesced-s0.Coalesced)), 0)
	put(m, spec, "serve.rejected", float64(s1.Rejected-s0.Rejected), 0)
	put(m, spec, "serve.group_commit_size", ratio(float64(s1.IngestRequests-s0.IngestRequests), float64(s1.GroupCommits-s0.GroupCommits)), 0)

	put(m, spec, "runtime.allocs_per_op", ratio(float64(res.mem1.Mallocs-res.mem0.Mallocs), float64(ops)), ops)
	put(m, spec, "runtime.alloc_bytes_per_op", ratio(float64(res.mem1.TotalAlloc-res.mem0.TotalAlloc), float64(ops)), ops)
	put(m, spec, "runtime.gc_cycles", float64(res.mem1.NumGC-res.mem0.NumGC), 0)
	put(m, spec, "runtime.gc_pause_ms", float64(res.mem1.PauseTotalNs-res.mem0.PauseTotalNs)/1e6, 0)
	put(m, spec, "runtime.peak_rss_mb", peakRSSMB(), 0)

	put(m, spec, "core.hot_bytes_per_event", mem.hotPerEvent, 0)
	put(m, spec, "core.warm_bytes_per_event", mem.warmPerEvent, 0)

	if len(res.ckptDur) > 0 {
		ms := make([]float64, len(res.ckptDur))
		for i, d := range res.ckptDur {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		put(m, spec, "wal.checkpoint_ms", median(ms), int64(len(ms)))
		put(m, spec, "wal.checkpoint_stall_x", ratio(res.ckptIngest.quantile(0.5), res.calmIngest.quantile(0.5)), int64(res.ckptIngest.n))
	}
	put(m, spec, "wal.checkpoint_bytes", float64(ckptBytes), 0)
	if rcv != nil {
		put(m, spec, "wal.recovered_records", float64(rcv.records), 0)
		put(m, spec, "recover_events_per_s", rcv.eventsPerSec, 0)
	}

	if res.obs != nil {
		o := res.obs
		put(m, spec, "core.shard_lock_contended_frac", ratio(float64(o.Counter("core.shard_lock_contended")), float64(o.Counter("core.shard_lock_acquisitions"))), int64(o.Counter("core.shard_lock_acquisitions")))
		put(m, spec, "core.seals", float64(o.Counter("core.history_seals")), 0)
		put(m, spec, "core.sealed_events", float64(o.Counter("core.history_sealed_events")), 0)
		put(m, spec, "wal.fsyncs", float64(o.Counter("wal.fsyncs")), 0)
		put(m, spec, "cluster.rpc_retries", float64(o.Counter("cluster.rpc_retries")), 0)
		put(m, spec, "cluster.rpc_failures", float64(o.Counter("cluster.rpc_failures")), 0)
		// Checkpoints fall on even slice edges; a slice that held one says
		// nothing about observability.
		calm := func(in sliceSet) sliceSet { return func(k int) bool { return in(k) && !res.ckptSlices[k] } }
		timed, traced := opsPerSec(res, calm(evenSlices)), opsPerSec(res, calm(oddSlices))
		if timed > 0 && traced > 0 {
			put(m, spec, "obs.trace_overhead_pct", 100*(timed-traced)/timed, 0)
		}
	}
}

// replayLayerMetrics names what the sequential traced replay measured.
// A sequential replay has no queueing, so a layer's self time is what
// it adds to every request. Self times are differences of spans of the
// same op and are reported as the median over ops — a preempted op
// cannot move a median — while counts and bytes, which repeat exactly,
// are means.
func replayLayerMetrics(m map[string]metric, spec workloadSpec, rd *replayData) {
	type sums struct {
		n, events                                 int64
		enc, dec, direct, req, resp               float64
		rpcs, cellsTouched, cellBytes             float64
		cross, ingestReqBytes                     float64
		netSelf, serveSelf, cellBusy, routerOther []float64
		e2e, unattributed                         []float64
	}
	var byKind [numOpKinds]sums
	var all, qry sums
	add := func(s *sums, r *replayOp) {
		s.n++
		s.events += int64(r.events)
		s.enc += float64(r.enc)
		s.dec += float64(r.dec)
		s.direct += float64(r.direct)
		s.req += float64(r.reqBytes)
		s.resp += float64(r.respBytes)
		s.rpcs += float64(r.rpcs)
		s.cellsTouched += float64(r.cellsTouched)
		s.cellBytes += float64(r.cellBytes)
		s.ingestReqBytes += float64(r.ingestReqBytes)
		if r.cellsTouched > 1 {
			s.cross++
		}
		netSelf, serveSelf := float64(r.do-r.serve), float64(r.serve-r.direct)
		routerOther := float64(r.serve - r.cellUnion)
		s.netSelf = append(s.netSelf, netSelf)
		s.serveSelf = append(s.serveSelf, serveSelf)
		s.cellBusy = append(s.cellBusy, float64(r.cellBusy))
		s.routerOther = append(s.routerOther, routerOther)
		s.e2e = append(s.e2e, float64(r.e2e))
		// The ledger: what the client saw minus every layer's self time,
		// each as it is reported: the harness's encode and decode, the
		// round trip outside the front handler, the front handler beyond a
		// direct call of the same op on the twin, and the engine's own
		// trace of the op on the front (stq self + region build + perimeter
		// + network; on the routed deployment the perimeter phase holds the
		// scatter RPCs). The twin's call and the front's trace time the
		// same work independently, so nothing forces the sum to the
		// client's latency: time no layer accounts for shows as a positive
		// remainder, time counted twice as a negative one.
		attributed := float64(r.engine)
		if spec.deploy != deployEngine {
			attributed += float64(r.enc+r.dec) + netSelf + serveSelf
		}
		s.unattributed = append(s.unattributed, float64(r.e2e)-attributed)
	}
	for i := range rd.ops {
		r := &rd.ops[i]
		add(&all, r)
		add(&byKind[r.kind], r)
		if r.kind != opIngest {
			add(&qry, r)
		}
	}
	ing := &byKind[opIngest]
	nAll, nQ, nI := float64(all.n), float64(qry.n), float64(ing.n)

	put(m, spec, "client.encode_us", ratio(all.enc, nAll)/1e3, all.n)
	put(m, spec, "client.decode_us", ratio(all.dec, nAll)/1e3, all.n)
	put(m, spec, "net.roundtrip_self_us", median(all.netSelf)/1e3, all.n)
	put(m, spec, "net.req_bytes", ratio(all.req, nAll), all.n)
	put(m, spec, "net.resp_bytes", ratio(all.resp, nAll), all.n)
	put(m, spec, "serve.handle_self_us", math.Max(0, median(all.serveSelf))/1e3, all.n)

	for k, name := range [...]string{"cluster.rpcs_per_snapshot", "cluster.rpcs_per_static", "cluster.rpcs_per_transient", "cluster.rpcs_per_ingest"} {
		put(m, spec, name, ratio(byKind[k].rpcs, float64(byKind[k].n)), byKind[k].n)
	}
	put(m, spec, "cluster.cells_per_query", ratio(qry.cellsTouched, nQ), qry.n)
	put(m, spec, "cluster.cell_busy_us_per_query", median(qry.cellBusy)/1e3, qry.n)
	put(m, spec, "cluster.router_other_us_per_query", median(qry.routerOther)/1e3, qry.n)
	put(m, spec, "cluster.bytes_per_query", ratio(qry.cellBytes, nQ), qry.n)
	put(m, spec, "cluster.cross_cell_batch_frac", ratio(ing.cross, nI), ing.n)

	hits, misses := float64(rd.plan1.Hits-rd.plan0.Hits), float64(rd.plan1.Misses-rd.plan0.Misses)
	put(m, spec, "query.plan_hit_frac", ratio(hits, hits+misses), int64(hits+misses))
	put(m, spec, "query.plan_evictions_per_op", ratio(float64(rd.plan1.Evictions-rd.plan0.Evictions), nQ), qry.n)
	served, missed := float64(rd.obs.Counter("query.served")), float64(rd.obs.Counter("query.missed"))
	put(m, spec, "query.cuts_per_query", ratio(float64(rd.obs.Counter("query.cut_roads_integrated")), served), int64(served))
	put(m, spec, "query.missed_frac", ratio(missed, served+missed), int64(served+missed))

	put(m, spec, "wal.bytes_per_event", ratio(float64(rd.obs.Counter("wal.append_bytes")), float64(ing.events)), ing.events)
	wireIngestBytes := ing.req // client→server frames on the wire surface
	if spec.deploy == deployRouted {
		wireIngestBytes = ing.ingestReqBytes // router→cell sub-batch frames
	}
	put(m, spec, "wire.bytes_per_event", ratio(wireIngestBytes, float64(ing.events)), ing.events)

	// The engine's trace spans System.Query from entry to return, so what
	// its phases leave of its total is System.Query's own share.
	ph := rd.phases
	stqSelf := math.Max(0, ph.total-ph.regionBuild-ph.perimeter-ph.network)
	put(m, spec, "stq.query_self_us", stqSelf/1e3, qry.n)
	put(m, spec, "stq.record_batch_ns_per_event", ratio(ing.direct, float64(ing.events)), ing.events)
	put(m, spec, "query.region_build_us", ph.regionBuild/1e3, qry.n)
	put(m, spec, "query.network_sim_us", ph.network/1e3, qry.n)
	put(m, spec, "core.perimeter_snapshot_us", rd.perimeterByKind[opSnapshot]/1e3, byKind[opSnapshot].n)
	put(m, spec, "core.perimeter_static_us", rd.perimeterByKind[opStatic]/1e3, byKind[opStatic].n)
	put(m, spec, "core.perimeter_transient_us", rd.perimeterByKind[opTransient]/1e3, byKind[opTransient].n)

	put(m, spec, "ledger.unattributed_pct", 100*ratio(median(qry.unattributed), median(qry.e2e)), qry.n)
}

// scratchLayerMetrics times single modules on scratch instances with
// the replay's inputs.
func scratchLayerMetrics(m map[string]metric, in *inputs, rd *replayData, tmp string) error {
	spec := in.spec
	queries, batches := replayInputs(in)
	st, err := measureStores(in, batches)
	if err != nil {
		return err
	}
	events := int64(countEvents(batches))
	put(m, spec, "core.record_batch_ns_per_event", st.coreNsPerEvent, events)
	put(m, spec, "partition.split_ns_per_event", st.splitNsPerEvent, events)
	put(m, spec, "partition.cross_batch_frac", st.crossBatchFrac, int64(len(batches)))

	if scopeWire.covers(spec) {
		wc, err := measureWire(queries, batches)
		if err != nil {
			return err
		}
		nq := int64(len(queries))
		put(m, spec, "wire.encode_query_ns", wc.encQueryNs, nq)
		put(m, spec, "wire.decode_query_ns", wc.decQueryNs, nq)
		put(m, spec, "wire.encode_result_ns", wc.encResultNs, nq)
		put(m, spec, "wire.decode_result_ns", wc.decResultNs, nq)
		put(m, spec, "wire.encode_ingest_ns_per_event", wc.encIngestNsPerEvent, events)
		put(m, spec, "wire.decode_ingest_ns_per_event", wc.decIngestNsPerEvent, events)
		put(m, spec, "wire.allocs_per_frame", wc.allocsPerFrame, int64(len(batches)))
	}
	if scopeCluster.covers(spec) {
		ns, err := measureScatterCodec(rd.spans.rpcs)
		if err != nil {
			return err
		}
		put(m, spec, "wire.scatter_codec_ns", ns, int64(len(rd.spans.rpcs)))
	}
	if scopeDurable.covers(spec) {
		x, err := measurePartitionQueries(in, queries)
		if err != nil {
			return err
		}
		put(m, spec, "partition.query_overhead_x", x, 0)
		us, err := measureWAL(tmp, batches)
		if err != nil {
			return err
		}
		put(m, spec, "wal.append_us_per_batch", us, int64(len(batches)))
	}
	return nil
}
