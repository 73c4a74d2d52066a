// Package netsim is the in-network communication substrate: a
// deterministic message-passing simulator over the sensing graph used to
// account for the communication costs the paper reports — nodes accessed,
// messages sent, and hop counts — under the two collection protocols of
// §4.6 (flooding the query region vs routing along its perimeter).
//
// The simulator models the algorithmic cost structure, not radio
// timing: each link delivery is one message, consistent with the paper's
// evaluation, which measures node accesses as the communication proxy.
// Lossy links are modelled by an optional per-delivery drop decider
// (SetDelivery): a dropped delivery is retried under exponential backoff
// up to a bounded budget, after which the delivery times out. Retries,
// drops, backoff units, and unreachable sensors are all accounted in
// Metrics so the query layer can report degraded collection honestly.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/planar"
)

// Observability counters (internal/obs): accumulated across every
// simulated collection, attributed to the netsim namespace.
var (
	mFloods   = obs.Default.Counter("netsim.floods")
	mRoutes   = obs.Default.Counter("netsim.routes")
	mMessages = obs.Default.Counter("netsim.messages")
	mHops     = obs.Default.Counter("netsim.hops")
	mRetries  = obs.Default.Counter("netsim.retries")
	mDrops    = obs.Default.Counter("netsim.drops")
	mFailed   = obs.Default.Counter("netsim.failed_nodes")
)

// record accumulates one collection's metrics into the obs counters.
// Counter updates are gated on the global obs flag, so this is free
// while instrumentation is disabled.
func record(m Metrics) {
	if !obs.Enabled() {
		return
	}
	mMessages.AddInt(m.Messages)
	mHops.AddInt(m.TotalHops)
	mRetries.AddInt(m.Retries)
	mDrops.AddInt(m.Drops)
	mFailed.AddInt(m.FailedNodes)
}

// Metrics aggregates the communication cost of one query.
type Metrics struct {
	// NodesAccessed is the number of distinct sensors that participated.
	NodesAccessed int
	// Messages is the number of link-level transmissions, including
	// deliveries that were dropped in flight.
	Messages int
	// Hops is the worst-case path length from the entry sensor: the BFS
	// depth for Flood, the deepest single collection leg for Route.
	Hops int
	// TotalHops is the total traversal length: the sum of all successful
	// leg lengths for Route (the collector's walk), the tree depth for
	// Flood. Route fills it with the full tour length, which is what the
	// latency-style cost models should read — Hops is the per-leg bound.
	TotalHops int
	// Retries counts redelivery attempts after dropped deliveries.
	Retries int
	// Drops counts link deliveries lost in flight.
	Drops int
	// Backoff accumulates the exponential-backoff wait units spent before
	// retries (1, 2, 4, ... per successive retry of one delivery).
	Backoff int
	// FailedNodes counts sensors that should have participated but never
	// did: dead, unreachable, or behind a timed-out delivery.
	FailedNodes int
}

// Add accumulates other into m. Hops max-merges (it is a worst-case
// depth); every other field is additive.
func (m *Metrics) Add(other Metrics) {
	m.NodesAccessed += other.NodesAccessed
	m.Messages += other.Messages
	if other.Hops > m.Hops {
		m.Hops = other.Hops
	}
	m.TotalHops += other.TotalHops
	m.Retries += other.Retries
	m.Drops += other.Drops
	m.Backoff += other.Backoff
	m.FailedNodes += other.FailedNodes
}

// Network is a static communication graph: sensors connected by the
// sensing-graph links (or a sampled subset of them).
//
// Everything a collection probes is an array indexed by node id.
// NewRestricted flattens the usable links once into one adjacency list
// (node v's neighbours are nbr[off[v]:off[v+1]], in the graph's Incident
// order, each stored as the link's other end), so a search walks only
// links it may use and never looks an edge up; the node restriction is
// a []bool. A degraded query builds its networks per query, so it pays
// this O(V + E) flattening each time. Node ids come from callers and are
// range-checked before any scratch is touched. Two scratch arrays are
// epoch-stamped instead of cleared: seenAt[v] == epoch means the current
// BFS (a Flood's or a Route leg's) settled v, accessedAt[v] == tour
// means the current Route tour counted v, and every BFS / every tour
// draws a fresh stamp — so repeated queries neither reallocate nor
// sweep. hops and prev are only read where the current BFS wrote them;
// pending is set and cleared by the tour that owns it.
//
// Flood and Route* serialize on an internal mutex, so one Network is
// safe for concurrent use. Note that with a stateful drop decider
// installed (SetDelivery) concurrent collections are memory-safe but
// consume the drop stream in interleaving order, so their individual
// metrics are only deterministic when collections run one at a time.
type Network struct {
	mu sync.Mutex
	// off / nbr are the usable links as adjacency lists.
	off []int32
	nbr []planar.NodeID
	// activeNodes restricts communication to a subset of sensors,
	// indexed by id; nil means all.
	activeNodes []bool
	// drop, when non-nil, decides whether one link delivery is lost;
	// maxRetries bounds redeliveries (SetDelivery).
	drop       func() bool
	maxRetries int
	// Search scratch.
	epoch, tour int32
	seenAt      []int32
	accessedAt  []int32
	hops        []int32
	prev        []planar.NodeID
	queue       []planar.NodeID
	pending     []bool
	path        []planar.NodeID
}

// New builds a network over all nodes and links of g.
func New(g *planar.Graph) *Network { return NewRestricted(g, nil, nil) }

// NewRestricted builds a network that may only use the given links (the
// sampled graph G̃'s materialized paths) and nodes (the sensors a fault
// plan left alive). nil means unrestricted; ids outside g restrict
// nothing. The maps are read here and not retained.
func NewRestricted(g *planar.Graph, edges map[planar.EdgeID]bool, nodes map[planar.NodeID]bool) *Network {
	n := g.NumNodes()
	net := &Network{
		off:        make([]int32, n+1),
		nbr:        make([]planar.NodeID, 0, 2*g.NumEdges()),
		seenAt:     make([]int32, n),
		accessedAt: make([]int32, n),
		hops:       make([]int32, n),
		prev:       make([]planar.NodeID, n),
		pending:    make([]bool, n),
	}
	for v := range n {
		for _, e := range g.Incident(planar.NodeID(v)) {
			if edges == nil || edges[e] {
				net.nbr = append(net.nbr, g.Edge(e).Other(planar.NodeID(v)))
			}
		}
		net.off[v+1] = int32(len(net.nbr))
	}
	if nodes != nil {
		net.activeNodes = make([]bool, n)
		for v, in := range nodes {
			if in && v >= 0 && int(v) < n {
				net.activeNodes[v] = true
			}
		}
	}
	return net
}

// neighbours returns the nodes v reaches over one usable link.
func (n *Network) neighbours(v planar.NodeID) []planar.NodeID {
	return n.nbr[n.off[v]:n.off[v+1]]
}

// SetDelivery installs a per-delivery drop decider and a bounded retry
// budget: each lost delivery is retried up to maxRetries times (with
// exponential backoff accounted in Metrics.Backoff) before it times out.
// Pass drop == nil to restore lossless delivery.
func (n *Network) SetDelivery(drop func() bool, maxRetries int) {
	n.drop = drop
	if maxRetries < 0 {
		maxRetries = 0
	}
	n.maxRetries = maxRetries
}

// deliver attempts one link delivery under the drop/retry policy,
// accounting lost transmissions, retries, and backoff in m. It reports
// whether the delivery eventually succeeded; the successful transmission
// itself is accounted by the caller's protocol cost formula.
func (n *Network) deliver(m *Metrics) bool {
	if n.drop == nil {
		return true
	}
	for attempt := 0; ; attempt++ {
		if !n.drop() {
			return true
		}
		m.Drops++
		m.Messages++ // the lost transmission still cost a send
		if attempt >= n.maxRetries {
			return false // bounded timeout: give up on this delivery
		}
		m.Retries++
		m.Backoff += 1 << attempt
	}
}

// inGraph reports whether v is a node id of the network's graph.
func (n *Network) inGraph(v planar.NodeID) bool { return uint(v) < uint(len(n.pending)) }

// nodeUsable reports whether v is a node of the graph and alive.
func (n *Network) nodeUsable(v planar.NodeID) bool {
	return n.inGraph(v) && (n.activeNodes == nil || n.activeNodes[v])
}

// bump advances an epoch counter to a value no entry of the array it
// stamps holds: when the counter wraps, the array is zeroed with it.
func bump(epoch *int32, stamps []int32) int32 {
	if *epoch == math.MaxInt32 {
		clear(stamps)
		*epoch = 0
	}
	*epoch++
	return *epoch
}

// Flood simulates region flooding: starting from root, a request wave
// expands over usable links restricted to `members` until every member is
// reached; responses aggregate back up the spanning tree. Messages are
// counted as request + response per tree link plus wasted request
// deliveries on non-tree links inside the region. Members that are down,
// disconnected, or behind timed-out deliveries are counted in
// Metrics.FailedNodes instead of aborting the wave.
func (n *Network) Flood(root planar.NodeID, members map[planar.NodeID]bool) (Metrics, error) {
	if !n.inGraph(root) {
		return Metrics{}, fmt.Errorf("netsim: flood root %d is not a node of the graph", root)
	}
	if !members[root] {
		return Metrics{}, fmt.Errorf("netsim: flood root %d is not a region member", root)
	}
	if !n.nodeUsable(root) {
		return Metrics{}, fmt.Errorf("netsim: flood root %d is down", root)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mFloods.Inc()
	var m Metrics
	epoch := bump(&n.epoch, n.seenAt)
	n.seenAt[root] = epoch
	n.hops[root] = 0
	n.queue = append(n.queue[:0], root)
	treeLinks := 0
	wasted := 0
	maxHop := 0
	for qi := 0; qi < len(n.queue); qi++ {
		v := n.queue[qi]
		for _, o := range n.neighbours(v) {
			if !members[o] || !n.nodeUsable(o) {
				continue
			}
			if n.seenAt[o] == epoch {
				wasted++ // duplicate request delivery
				continue
			}
			if !n.deliver(&m) {
				continue // delivery timed out; o may be reached elsewhere
			}
			n.seenAt[o] = epoch
			n.hops[o] = n.hops[v] + 1
			maxHop = max(maxHop, int(n.hops[o]))
			treeLinks++
			n.queue = append(n.queue, o)
		}
	}
	m.NodesAccessed = len(n.queue) // every settled node, the root included
	m.Messages += 2*treeLinks + wasted
	m.Hops = maxHop
	m.TotalHops = maxHop
	m.FailedNodes = len(members) - len(n.queue)
	record(m)
	return m, nil
}

// Route simulates perimeter collection: starting from the sensor of
// `targets` closest to the dispatcher entry, the query visits every
// target by repeatedly routing to the nearest unvisited target over
// usable links (a greedy travelling collector, the "one node traverses
// and aggregates" method of §4.6). All intermediate relay sensors count
// as accessed. Route fails when any target cannot be collected; use
// RouteBestEffort for the degraded-tolerant variant.
func (n *Network) Route(entry planar.NodeID, targets []planar.NodeID) (Metrics, error) {
	if len(targets) == 0 {
		return Metrics{}, fmt.Errorf("netsim: no route targets")
	}
	m, unreached := n.RouteBestEffort(entry, targets)
	if len(unreached) > 0 {
		return Metrics{}, fmt.Errorf("netsim: %d perimeter sensors unreachable from %d", len(unreached), entry)
	}
	return m, nil
}

// RouteBestEffort is Route without the all-or-nothing contract: it
// collects every target it can and returns the targets it could not
// reach (down, disconnected, behind a timed-out leg, or not a node of
// the graph; all of them when the entry is down or not a node). The
// caller decides how to account the unreached set — the query engine
// reroutes them over the full surviving graph before declaring them
// failed, so RouteBestEffort itself leaves Metrics.FailedNodes at zero.
func (n *Network) RouteBestEffort(entry planar.NodeID, targets []planar.NodeID) (Metrics, []planar.NodeID) {
	var m Metrics
	if !n.nodeUsable(entry) {
		return m, dedup(targets)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mRoutes.Inc()
	// The reset is registered before the first mark, so no exit leaves a
	// target pending for the next tour.
	defer func() {
		for _, t := range targets {
			if n.inGraph(t) {
				n.pending[t] = false
			}
		}
	}()
	var unreached []planar.NodeID
	remaining := 0
	for _, t := range targets {
		switch {
		case !n.inGraph(t):
			if !slices.Contains(unreached, t) {
				unreached = append(unreached, t)
			}
		case !n.pending[t]:
			n.pending[t] = true
			remaining++
		}
	}
	tour := bump(&n.tour, n.accessedAt)
	n.accessedAt[entry] = tour
	accessed := 1
	cur := entry
	messages := 0
	totalHops := 0
	maxLeg := 0
	for remaining > 0 {
		dst, ok := n.bfsToNearest(cur)
		if !ok {
			// No pending target is reachable from here: the rest fail.
			for _, t := range targets {
				if n.pending[t] {
					n.pending[t] = false
					unreached = append(unreached, t)
				}
			}
			break
		}
		hops := int(n.hops[dst])
		// Materialize the leg in forward order (prev chains backwards).
		n.path = n.path[:0]
		for at := dst; at != cur; at = n.prev[at] {
			n.path = append(n.path, at)
		}
		legOK := true
		for i := len(n.path) - 1; i >= 0; i-- {
			if !n.deliver(&m) {
				legOK = false
				break
			}
			if v := n.path[i]; n.accessedAt[v] != tour {
				n.accessedAt[v] = tour
				accessed++
			}
			messages++ // request forwarding hop
		}
		if legOK {
			totalHops += hops
			if hops > maxLeg {
				maxLeg = hops
			}
			cur = dst
		} else {
			// The request died mid-leg; the collector stays put and the
			// target is skipped (partial forwarding cost already counted).
			unreached = append(unreached, dst)
		}
		n.pending[dst] = false
		remaining--
	}
	m.NodesAccessed = accessed
	m.Messages += messages + totalHops // request forwarding + aggregated reply
	m.Hops = maxLeg
	m.TotalHops = totalHops
	record(m)
	return m, unreached
}

func dedup(ns []planar.NodeID) []planar.NodeID {
	seen := make(map[planar.NodeID]bool, len(ns))
	var out []planar.NodeID
	for _, v := range ns {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// bfsToNearest runs BFS from src over usable links until the nearest
// pending node is settled, filling the scratch hop/prev arrays. It
// returns the settled node, or ok=false when no pending node is
// reachable.
func (n *Network) bfsToNearest(src planar.NodeID) (planar.NodeID, bool) {
	epoch := bump(&n.epoch, n.seenAt)
	n.seenAt[src] = epoch
	n.hops[src] = 0
	n.prev[src] = src
	if n.pending[src] {
		return src, true
	}
	n.queue = append(n.queue[:0], src)
	for qi := 0; qi < len(n.queue); qi++ {
		v := n.queue[qi]
		for _, o := range n.neighbours(v) {
			if !n.nodeUsable(o) || n.seenAt[o] == epoch {
				continue
			}
			n.seenAt[o] = epoch
			n.hops[o] = n.hops[v] + 1
			n.prev[o] = v
			if n.pending[o] {
				return o, true
			}
			n.queue = append(n.queue, o)
		}
	}
	return planar.NoNode, false
}
