package main

import (
	"fmt"
	"sync"

	stq "repro"
)

// placementSeedOffset pairs every sampled deployment with its oracle:
// both place sensors with seed+placementSeedOffset.
const placementSeedOffset = 3

// oracle is the reference every answer is compared with: an
// unpartitioned, hot-only (no tiered history), plan-cache-off
// in-process System fed the same preload. It shares the engine's
// counting code with the deployments but none of the mechanisms the
// workloads stress — plan cache, sealing, partitioning, serving, wire,
// cluster — so a bug in any of those shows as a mismatch.
type oracle struct {
	sys *stq.System
}

func newOracle(in *inputs) (*oracle, error) {
	w, err := buildWorld(in.gridOpts)
	if err != nil {
		return nil, err
	}
	sys := stq.NewSystem(w)
	if err := sys.SetIngestOrdering(stq.OrderPerEdge); err != nil {
		return nil, err
	}
	if err := in.feedPreload(sys.RecordBatch, nil); err != nil {
		return nil, err
	}
	if in.spec.sampled {
		if err := sys.PlaceSensors(stq.PlacementQuadTree, sensorBudget, datasetSeed+placementSeedOffset); err != nil {
			return nil, err
		}
	}
	sys.SetPlanCacheCapacity(0)
	return &oracle{sys: sys}, nil
}

func answerOf(r *stq.Response) answer {
	return answer{
		Count: r.Count, Missed: r.Missed, RegionFaces: r.RegionFaces,
		NodesAccessed: r.NodesAccessed, Messages: r.Messages, Hops: r.Hops,
		TotalHops: r.TotalHops, EdgesAccessed: r.EdgesAccessed,
	}
}

func (o *oracle) answer(q stq.Query) (answer, error) {
	r, err := o.sys.Query(q)
	if err != nil {
		return answer{}, err
	}
	if r.Degradation != nil {
		return answer{}, fmt.Errorf("oracle answered degraded")
	}
	return answerOf(r), nil
}

// fillReferences builds the oracle and stores its answer in every query
// op of the inputs.
func fillReferences(in *inputs) error {
	o, err := newOracle(in)
	if err != nil {
		return err
	}
	return o.fill(in)
}

// fill computes the reference answer of every query op, one goroutine
// per client stream.
func (o *oracle) fill(in *inputs) error {
	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for c := range in.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := in.clients[c].ops
			for i := range ops {
				if ops[i].kind == opIngest {
					continue
				}
				a, err := o.answer(ops[i].q)
				if err != nil {
					errs[c] = fmt.Errorf("oracle: client %d op %d: %w", c, i, err)
					return
				}
				ops[i].want = a
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
