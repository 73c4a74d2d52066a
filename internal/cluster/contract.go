package cluster

import (
	"repro/internal/core"
	"repro/internal/learned"
	"repro/internal/partition"
)

// The store contract (DESIGN.md §7.2), held by the compiler in the one
// package that can name all four stores. Every store is a core.Counter in
// full — RoadCrossings, CountCuts, CutFlow over tracked edges of the
// closed graph (no junction list: world edges are cuts) and the one
// enumeration WorldJunctions: a method lost to a signature slip fails
// the build instead of dropping a store to a slower path. The three that
// keep the event sequence are core.StepListers and the learned store is
// not — the one capability the query engine asks a store about. The two
// a partition.Set shards over are partition.Members: the contract plus
// the write half and the event count, and no generation of
// anything — the world-junction sets only grow, so their lengths are
// their versions.
var (
	_ core.Counter = (*core.Store)(nil)
	_ core.Counter = (*learned.Store)(nil)
	_ core.Counter = (*partition.Set)(nil)
	_ core.Counter = (*cell)(nil)

	_ core.StepLister = (*core.Store)(nil)
	_ core.StepLister = (*partition.Set)(nil)
	_ core.StepLister = (*cell)(nil)

	_ partition.Member = (*core.Store)(nil)
	_ partition.Member = (*cell)(nil)
)
