package cluster

import (
	"repro/internal/core"
	"repro/internal/partition"
)

// The store contract (DESIGN.md §7.2), held by the compiler in the one
// package that can name all three stores the query engine serves from.
// Every store is a core.StepLister in full — the core.Counter methods
// RoadCrossings, CountCuts, CutFlow over tracked edges of the closed
// graph (no junction list: world edges are cuts) and the one enumeration
// WorldJunctions, plus StaticSteps over the kept event sequence: a
// method lost to a signature slip fails the build, since the engine
// takes nothing less. The two a partition.Set shards over are
// partition.Members: the contract plus the write half and the event
// count, and no generation of anything — the world-junction sets only
// grow, so their lengths are their versions.
var (
	_ core.StepLister = (*core.Store)(nil)
	_ core.StepLister = (*partition.Set)(nil)
	_ core.StepLister = (*cell)(nil)

	_ partition.Member = (*core.Store)(nil)
	_ partition.Member = (*cell)(nil)
)
