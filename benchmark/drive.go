package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	stq "repro"
)

// runCfg is the shape of one driven phase: a warm-up, then `slices`
// measured slices. Everything is accounted per slice, so that the
// end-to-end metrics can be read from the slices a noisy neighbour left
// alone (quietWindow).
type runCfg struct {
	clients int
	warmup  time.Duration
	slices  int
	// sliceDur is the length of a slice on the clock; sliceEvents, when
	// > 0, slices by acknowledged ingest events instead (fixed work).
	sliceDur    time.Duration
	sliceEvents int64
	// obsOdd switches observability on for the odd slices (traced runs):
	// interleaving the obs-on and obs-off slices keeps their comparison
	// clear of drift over the run, and the registry's counters then
	// cover the odd slices only.
	obsOdd bool
	// checkpoints POSTs /v1/checkpoint when acknowledged events cross
	// 20/40/60/80% of the run.
	checkpoints bool
}

// boundary is what is sampled at a slice edge.
type boundary struct {
	at  time.Time
	cpu time.Duration // process user+sys CPU so far
}

// sliceAcc accumulates one slice of one client (and, merged, of a run).
type sliceAcc struct {
	lat    [numOpKinds]hist
	events int64
}

func (s *sliceAcc) ops() (n int64) {
	for k := range s.lat {
		n += int64(s.lat[k].n)
	}
	return n
}

func (s *sliceAcc) merge(o *sliceAcc) {
	for k := range s.lat {
		s.lat[k].merge(&o.lat[k])
	}
	s.events += o.events
}

// runResult is everything a driven phase measured.
type runResult struct {
	cfg    runCfg
	bounds []boundary // slices+1 edges
	slices []sliceAcc // merged over clients
	// attempted and outcomes count every op issued, warm-up included:
	// a wrong answer is wrong whenever it was given.
	attempted int64
	outcomes  [numOutcomes]int64
	firstErr  error
	ackEvents int64 // events acknowledged over the whole phase, warm-up included
	// Checkpoint stalls (checkpoints only): duration of each, and ingest
	// latency split by whether a checkpoint was in flight.
	ckptDur                []time.Duration
	ckptIngest, calmIngest hist
	// ckptSlices marks the slices during which a checkpoint was in flight.
	ckptSlices []bool
	// Go runtime and serving counters at the first and last edge.
	mem0, mem1 runtime.MemStats
	srv0, srv1 stq.ServerStats
	// obs is the registry after the last slice, covering the obs-on
	// slices; nil unless obsOdd.
	obs *stq.ObsSnapshot
}

func (r *runResult) failed() int64 {
	return r.attempted - r.outcomes[outcomeOK]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter owns the slice clock of a phase.
type meter struct {
	cfg   runCfg
	d     *deployment
	res   *runResult
	start time.Time // bounds[0].at, set before measuring flips

	measuring atomic.Bool
	done      atomic.Bool
	acked     atomic.Int64
	ckptBusy  atomic.Bool
	ckptCh    chan struct{}
}

// mark samples slice edge k. Each k is marked exactly once: by the
// clock goroutine in time mode, by the client whose acknowledgement
// crossed it in work mode.
func (m *meter) mark(k int) {
	m.res.bounds[k] = boundary{at: time.Now(), cpu: cpuTime()}
	if k == 0 {
		runtime.ReadMemStats(&m.res.mem0)
		if m.d.srv != nil {
			m.res.srv0 = m.d.srv.Stats()
		}
	}
	if m.cfg.obsOdd {
		if k%2 == 1 && k < m.cfg.slices {
			stq.EnableObservability()
		} else {
			stq.DisableObservability()
		}
	}
	if m.cfg.checkpoints && k > 0 && k < m.cfg.slices && (k*5)%m.cfg.slices == 0 {
		m.ckptCh <- struct{}{}
	}
	if k == m.cfg.slices {
		runtime.ReadMemStats(&m.res.mem1)
		if m.d.srv != nil {
			m.res.srv1 = m.d.srv.Stats()
		}
		m.done.Store(true)
	}
}

// clock drives a phase's edges: the warm-up end always, every later
// edge in time mode.
func (m *meter) clock() {
	time.Sleep(m.cfg.warmup)
	m.start = time.Now()
	m.mark(0)
	m.measuring.Store(true)
	if m.cfg.sliceEvents > 0 {
		return
	}
	for k := 1; k <= m.cfg.slices; k++ {
		time.Sleep(time.Until(m.start.Add(time.Duration(k) * m.cfg.sliceDur)))
		m.mark(k)
	}
}

// ack accounts n acknowledged events and returns the slice they belong
// to (−1 outside the measured window), marking any edge they crossed.
func (m *meter) ack(n int64, end time.Time) int {
	if !m.measuring.Load() {
		return -1
	}
	if m.cfg.sliceEvents == 0 {
		return m.sliceAt(end)
	}
	total := m.acked.Add(n)
	per := m.cfg.sliceEvents
	lo, hi := (total-n)/per, total/per
	for k := lo + 1; k <= hi && k <= int64(m.cfg.slices); k++ {
		m.mark(int(k))
	}
	if s := int((total - 1) / per); s < m.cfg.slices {
		return s
	}
	return -1
}

// sliceAt places a completed query in a slice.
func (m *meter) sliceAt(end time.Time) int {
	if !m.measuring.Load() {
		return -1
	}
	var s int
	if m.cfg.sliceEvents > 0 {
		s = int(m.acked.Load() / m.cfg.sliceEvents)
	} else {
		if end.Before(m.start) {
			return -1
		}
		s = int(end.Sub(m.start) / m.cfg.sliceDur)
	}
	if s >= m.cfg.slices {
		return -1
	}
	return s
}

// checkpointer POSTs /v1/checkpoint each time it is signalled, as an
// operator's cron would, while the load keeps running.
func (m *meter) checkpointer() error {
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	var first error
	for range m.ckptCh {
		m.ckptBusy.Store(true)
		t0 := time.Now()
		from := m.sliceAt(t0)
		resp, err := hc.Post(m.d.base+"/v1/checkpoint", "application/json", nil)
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("checkpoint: HTTP %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		m.res.ckptDur = append(m.res.ckptDur, time.Since(t0))
		m.ckptBusy.Store(false)
		to := m.sliceAt(time.Now())
		if to < 0 { // the run ended meanwhile
			to = m.cfg.slices - 1
		}
		for k := from; k >= 0 && k <= to; k++ {
			m.res.ckptSlices[k] = true
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientState is one closed-loop client: its position in its cyclic op
// stream and ingest stripe, its connection, its accumulators.
type clientState struct {
	id                  int
	call                caller
	opIdx, cursor, lap  int
	evbuf               []stq.Event
	slices              []sliceAcc
	attempted, ackd     int64
	outcomes            [numOutcomes]int64
	firstErr            error
	ckptIngest, calmIng hist
}

// step issues the client's next op and accounts it.
func (c *clientState) step(in *inputs, m *meter) {
	ops := in.clients[c.id].ops
	o := &ops[c.opIdx%len(ops)]
	c.opIdx++
	c.attempted++
	var oc outcome
	var err error
	if o.kind == opIngest {
		c.evbuf = in.nextBatch(c.id, &c.cursor, &c.lap, in.spec.batchEvents, c.evbuf)
		busy := m.ckptBusy.Load()
		start := time.Now()
		oc, err = c.call.ingest(c.evbuf)
		end := time.Now()
		if oc == outcomeOK {
			n := int64(len(c.evbuf))
			c.ackd += n
			if s := m.ack(n, end); s >= 0 {
				lat := int64(end.Sub(start))
				c.slices[s].lat[opIngest].add(lat)
				c.slices[s].events += n
				if m.cfg.checkpoints {
					if busy || m.ckptBusy.Load() {
						c.ckptIngest.add(lat)
					} else {
						c.calmIng.add(lat)
					}
				}
			}
		}
	} else {
		var got answer
		start := time.Now()
		got, oc, err = c.call.query(o.q)
		end := time.Now()
		if oc == outcomeOK && got != o.want {
			oc = outcomeMismatch
			err = fmt.Errorf("client %d op %d (%s): answered %+v, reference %+v", c.id, c.opIdx-1, opKindNames[o.kind], got, o.want)
		}
		if oc == outcomeOK {
			if s := m.sliceAt(end); s >= 0 {
				c.slices[s].lat[o.kind].add(int64(end.Sub(start)))
			}
		}
	}
	c.outcomes[oc]++
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
}

// drive runs one phase against a booted deployment: C closed-loop
// clients, each sending its next request when the previous one
// completed, nothing else running beside them.
func drive(d *deployment, cfg runCfg) (*runResult, error) {
	res := &runResult{cfg: cfg, bounds: make([]boundary, cfg.slices+1), slices: make([]sliceAcc, cfg.slices), ckptSlices: make([]bool, cfg.slices)}
	m := &meter{cfg: cfg, d: d, res: res, ckptCh: make(chan struct{}, cfg.slices)} // one send per edge at most
	stq.DisableObservability()
	stq.ResetObservability()

	clients := make([]*clientState, cfg.clients)
	for i := range clients {
		clients[i] = &clientState{id: i, call: newCaller(d), slices: make([]sliceAcc, cfg.slices)}
	}
	var ckptErr error
	var aux sync.WaitGroup
	if cfg.checkpoints {
		aux.Add(1)
		go func() { defer aux.Done(); ckptErr = m.checkpointer() }()
	}
	aux.Add(1)
	go func() { defer aux.Done(); m.clock() }()

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			for !m.done.Load() {
				c.step(d.in, m)
			}
		}(c)
	}
	wg.Wait()
	close(m.ckptCh)
	aux.Wait()
	stq.DisableObservability()
	if cfg.obsOdd {
		snap := d.sys.Snapshot()
		res.obs = &snap
	}

	for _, c := range clients {
		for s := range res.slices {
			res.slices[s].merge(&c.slices[s])
		}
		res.attempted += c.attempted
		res.ackEvents += c.ackd
		for i, n := range c.outcomes {
			res.outcomes[i] += n
		}
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		res.ckptIngest.merge(&c.ckptIngest)
		res.calmIngest.merge(&c.calmIng)
		c.call.close()
	}
	if ckptErr != nil {
		return res, ckptErr
	}
	return res, nil
}
