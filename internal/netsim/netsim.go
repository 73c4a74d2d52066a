// Package netsim is the in-network communication substrate: a
// deterministic message-passing simulator over the sensing graph used to
// account for the communication costs the paper reports — nodes accessed,
// messages sent, and hop counts — under the two collection protocols of
// §4.6 (flooding the query region vs routing along its perimeter).
//
// The simulator models the algorithmic cost structure, not radio
// timing: each link delivery is one message, consistent with the paper's
// evaluation, which measures node accesses as the communication proxy.
// Every delivery succeeds; sensors a collection cannot reach over the
// usable links are accounted in Metrics.FailedNodes.
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
	mFailed.AddInt(m.FailedNodes)
}

// Metrics aggregates the communication cost of one query.
type Metrics struct {
	// NodesAccessed is the number of distinct sensors that participated.
	NodesAccessed int
	// Messages is the number of link-level transmissions.
	Messages int
	// Hops is the worst-case path length from the entry sensor: the BFS
	// depth for Flood, the deepest single collection leg for Route.
	Hops int
	// TotalHops is the total traversal length: the sum of all collection
	// leg lengths for Route (the collector's walk), the tree depth for
	// Flood. Route fills it with the full tour length, which is what the
	// latency-style cost models should read — Hops is the per-leg bound.
	TotalHops int
	// FailedNodes counts sensors that should have participated but never
	// did: Flood's members the wave could not reach over usable links.
	FailedNodes int
}

// Network is a static communication graph: sensors connected by the
// sensing-graph links (or a sampled subset of them).
//
// Everything a collection probes is an array indexed by node id.
// NewRestricted flattens the usable links once into one adjacency list
// (node v's neighbours are nbr[off[v]:off[v+1]], in the graph's Incident
// order, each stored as the link's other end), so a search walks only
// links it may use and never looks an edge up. Node ids come from
// callers and are range-checked before any scratch is touched. A node's
// search scratch is one 16-byte slot, so a search touches one place a
// node, and its pending mark is one byte of a dense array, which the
// one-hop checks read. Two slot fields are epoch-stamped instead of
// cleared: seen == epoch means the current BFS (a Flood's or a Route
// leg's) settled the node, tour == the current tour's stamp that the
// current Route tour counted it, and every BFS / every tour draws a
// fresh stamp — so repeated queries neither reallocate nor sweep; a
// Route leg that ends within one hop draws none. prev is only read
// along the path the current leg wrote, and hops only at its end;
// pending is set and cleared by the tour that owns it.
//
// Flood and Route* serialize on an internal mutex, so one Network is
// safe for concurrent use.
type Network struct {
	mu sync.Mutex
	// off / nbr are the usable links as adjacency lists.
	off []int32
	nbr []int32
	// Search scratch.
	epoch, tour int32
	slots       []slot
	pending     []bool
	queue       []int32
}

// slot is one node's search scratch.
type slot struct {
	seen, tour, hops, prev int32
}

// New builds a network over all nodes and links of g.
func New(g *planar.Graph) *Network { return NewRestricted(g, nil) }

// NewRestricted builds a network that may only use the given links (the
// sampled graph G̃'s materialized paths). nil means unrestricted; ids
// outside g restrict nothing. The map is read here and not retained.
func NewRestricted(g *planar.Graph, edges map[planar.EdgeID]bool) *Network {
	n := g.NumNodes()
	net := &Network{
		off:     make([]int32, n+1),
		nbr:     make([]int32, 0, 2*g.NumEdges()),
		slots:   make([]slot, n),
		pending: make([]bool, n),
	}
	for v := range n {
		for _, e := range g.Incident(planar.NodeID(v)) {
			if edges == nil || edges[e] {
				net.nbr = append(net.nbr, int32(g.Edge(e).Other(planar.NodeID(v))))
			}
		}
		net.off[v+1] = int32(len(net.nbr))
	}
	return net
}

// neighbours returns the nodes v reaches over one usable link.
func (n *Network) neighbours(v int32) []int32 {
	return n.nbr[n.off[v]:n.off[v+1]]
}

// inGraph reports whether v is a node id of the network's graph.
func (n *Network) inGraph(v planar.NodeID) bool { return uint(v) < uint(len(n.pending)) }

// nextEpoch draws a fresh BFS stamp and nextTour a fresh tour stamp,
// each a value no slot holds in the field it stamps: when a counter
// wraps, that field of every slot is zeroed with it.
func (n *Network) nextEpoch() int32 {
	if n.epoch == math.MaxInt32 {
		for i := range n.slots {
			n.slots[i].seen = 0
		}
		n.epoch = 0
	}
	n.epoch++
	return n.epoch
}

func (n *Network) nextTour() int32 {
	if n.tour == math.MaxInt32 {
		for i := range n.slots {
			n.slots[i].tour = 0
		}
		n.tour = 0
	}
	n.tour++
	return n.tour
}

// Flood simulates region flooding: starting from root, a request wave
// expands over usable links restricted to `members` until every member is
// reached; responses aggregate back up the spanning tree. Messages are
// counted as request + response per tree link plus wasted request
// deliveries on non-tree links inside the region. Members the wave
// cannot reach are counted in Metrics.FailedNodes instead of aborting it.
func (n *Network) Flood(root planar.NodeID, members map[planar.NodeID]bool) (Metrics, error) {
	if !n.inGraph(root) {
		return Metrics{}, fmt.Errorf("netsim: flood root %d is not a node of the graph", root)
	}
	if !members[root] {
		return Metrics{}, fmt.Errorf("netsim: flood root %d is not a region member", root)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mFloods.Inc()
	epoch := n.nextEpoch()
	n.slots[root].seen = epoch
	n.slots[root].hops = 0
	n.queue = append(n.queue[:0], int32(root))
	treeLinks := 0
	wasted := 0
	maxHop := 0
	for qi := 0; qi < len(n.queue); qi++ {
		v := n.queue[qi]
		for _, o := range n.neighbours(v) {
			if !members[planar.NodeID(o)] {
				continue
			}
			so := &n.slots[o]
			if so.seen == epoch {
				wasted++ // duplicate request delivery
				continue
			}
			so.seen = epoch
			so.hops = n.slots[v].hops + 1
			maxHop = max(maxHop, int(so.hops))
			treeLinks++
			n.queue = append(n.queue, o)
		}
	}
	m := Metrics{
		NodesAccessed: len(n.queue), // every settled node, the root included
		Messages:      2*treeLinks + wasted,
		Hops:          maxHop,
		TotalHops:     maxHop,
		FailedNodes:   len(members) - len(n.queue),
	}
	record(m)
	return m, nil
}

// Route simulates perimeter collection: starting from the sensor of
// `targets` closest to the dispatcher entry, the query visits every
// target by repeatedly routing to the nearest unvisited target over
// usable links (a greedy travelling collector, the "one node traverses
// and aggregates" method of §4.6). All intermediate relay sensors count
// as accessed. Route fails when any target cannot be collected; use
// RouteBestEffort to collect what can be reached.
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
// reach (disconnected, or not a node of the graph; all of them when the
// entry is not a node). It leaves Metrics.FailedNodes at zero.
func (n *Network) RouteBestEffort(entry planar.NodeID, targets []planar.NodeID) (Metrics, []planar.NodeID) {
	if !n.inGraph(entry) {
		return Metrics{}, dedup(targets)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mRoutes.Inc()
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
	// Every exit below clears what it marked: a leg clears the target it
	// reaches, and the first leg that reaches none clears the rest.
	tour := n.nextTour()
	n.slots[entry].tour = tour
	accessed := 1
	cur := int32(entry)
	totalHops := 0
	maxLeg := 0
	for remaining > 0 {
		dst, ok := n.nearestPending(cur)
		if !ok {
			// No pending target is reachable from here: the rest fail.
			for _, t := range targets {
				if n.inGraph(t) && n.pending[t] {
					n.pending[t] = false
					unreached = append(unreached, t)
				}
			}
			break
		}
		// Every sensor of the leg relays the request: walk it back from dst.
		for at := dst; at != cur; at = n.slots[at].prev {
			if n.slots[at].tour != tour {
				n.slots[at].tour = tour
				accessed++
			}
		}
		sd := &n.slots[dst]
		hops := int(sd.hops)
		totalHops += hops
		maxLeg = max(maxLeg, hops)
		cur = dst
		n.pending[dst] = false
		remaining--
	}
	m := Metrics{
		NodesAccessed: accessed,
		Messages:      2 * totalHops, // request forwarding + aggregated reply
		Hops:          maxLeg,
		TotalHops:     totalHops,
	}
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

// nearestPending finds the pending node a BFS from src over usable links
// settles first, filling its hops and the prev of the slots on the path
// to it. It returns ok=false when no pending node is reachable. The BFS
// settles src, then src's neighbours in adjacency order, so those two
// rings are checked directly, without a queue or a fresh epoch: on a
// perimeter tour most legs end one hop away.
func (n *Network) nearestPending(src int32) (int32, bool) {
	if n.pending[src] {
		n.slots[src].hops = 0
		return src, true
	}
	for _, o := range n.neighbours(src) {
		if n.pending[o] {
			so := &n.slots[o]
			so.hops, so.prev = 1, src
			return o, true
		}
	}
	epoch := n.nextEpoch()
	n.slots[src].seen = epoch
	n.queue = append(n.queue[:0], src)
	// Level by level: the nodes settled from level hops-1 are at hops.
	for qi, hops := 0, int32(1); qi < len(n.queue); hops++ {
		for end := len(n.queue); qi < end; qi++ {
			v := n.queue[qi]
			for _, o := range n.neighbours(v) {
				so := &n.slots[o]
				if so.seen == epoch {
					continue
				}
				so.seen, so.prev = epoch, v
				if n.pending[o] {
					so.hops = hops
					return o, true
				}
				n.queue = append(n.queue, o)
			}
		}
	}
	return -1, false
}
