package cluster

import (
	"repro/internal/core"
	"repro/internal/learned"
	"repro/internal/partition"
)

// The store contract (DESIGN.md §7.2), held by the compiler in the one
// package that can name all four stores. Every store is a core.Counter in
// full: a method lost to a signature slip fails the build instead of
// dropping a store to a slower path. The three that keep the event
// sequence are core.StepListers and the learned store is not — the one
// capability the query engine asks a store about. The two a
// partition.Set shards over are partition.Members.
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
