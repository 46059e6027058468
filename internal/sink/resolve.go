package sink

import (
	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Resolver maps an anonymous mark ID back to candidate real node IDs for a
// given report. Anonymous IDs are truncated, so several nodes can collide;
// the verifier disambiguates by checking the MAC under each candidate key.
//
// Candidates stream to the caller instead of being returned as a slice so
// a resolver can search lazily (the §7 topology-restricted search expands
// outward depth by depth) and stop the moment the caller accepts one. The
// resolver must keep producing candidates until the caller accepts or the
// candidate space is exhausted: a truncated-ID collision at a shallow
// depth must never hide the true, deeper marker.
type Resolver interface {
	// Resolve calls yield for each candidate real ID for anon under
	// report, cheapest candidates first, and stops early when yield
	// returns true (the caller accepted the candidate). prev is the
	// already-verified node one mark downstream (the hint the paper's §7
	// O(d) optimization uses); havePrev is false for the last mark in a
	// packet. epoch names the topology snapshot current when the packet
	// arrived at the sink (topology.EpochSet versions; 0 is the base
	// topology): a topology-restricted search must walk the tree the
	// packet was forwarded under, not the tree the sink started with.
	// Resolvers whose candidate space is topology-independent ignore it.
	Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool)
}

// ResolveAll drains a resolver's full candidate stream into a slice —
// convenience for tests and tools; the verifier hot path streams instead.
func ResolveAll(r Resolver, report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion) []packet.NodeID {
	var out []packet.NodeID
	r.Resolve(report, anon, prev, havePrev, epoch, func(id packet.NodeID) bool {
		out = append(out, id)
		return false
	})
	return out
}

// anonIDFunc computes a node's anonymous ID for a report. It is a seam:
// in production it is nil and the resolvers derive IDs through their
// cached per-node key schedules (bit-identical to mac.AnonID, without the
// per-call HMAC setup); tests substitute a colliding function to
// manufacture truncated-ID collisions at chosen nodes without searching
// for real HMAC collisions.
type anonIDFunc func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte

// DefaultTableCacheSize is the per-resolver anonymous-ID table cache
// capacity. Interleaved traffic from several sources (each source's
// retransmissions sharing a report) revisits a small working set of
// reports; a handful of cached tables turns the per-packet O(n) rebuild
// into a lookup.
const DefaultTableCacheSize = 16

// ExhaustiveResolver implements the paper's base method: for each distinct
// report, compute the anonymous ID of every node in the network and build a
// lookup table. Tables are cached in a small deterministic LRU keyed by
// report: the sink verifies a packet's marks back to front against one
// report, and interleaved multi-source traffic cycles through a few live
// reports at a time, so a short cache eliminates per-packet rebuilds.
//
// pnmlint:single-goroutine — the per-report table cache is unsynchronized;
// one goroutine owns an instance for its lifetime (see the package doc's
// Ownership section). The ownership analyzer enforces this.
type ExhaustiveResolver struct {
	keys   *mac.KeyStore
	nodes  []packet.NodeID
	hasher *mac.Hasher
	anonID anonIDFunc    // test seam; nil selects the schedule-backed engine
	in     mac.AnonInput // the report a table build is hashing

	// cache holds the most recently used tables, most recent first.
	cache    []tableEntry
	cacheCap int

	// obs bindings; nil (no-op) unless Instrument was called.
	tableBuilds *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	candidates  *obs.Counter
}

// tableEntry is one cached per-report anonymous-ID table.
type tableEntry struct {
	report packet.Report
	table  map[[packet.AnonIDLen]byte][]packet.NodeID
}

// NewExhaustiveResolver returns a resolver over the given node universe
// with the default table cache size.
func NewExhaustiveResolver(keys *mac.KeyStore, nodes []packet.NodeID) *ExhaustiveResolver {
	return NewExhaustiveResolverCache(keys, nodes, DefaultTableCacheSize)
}

// NewExhaustiveResolverCache returns a resolver with an explicit table
// cache capacity. Capacity 1 reproduces the pre-LRU single-report cache —
// the interleaved-multisource benchmark uses it as its baseline.
func NewExhaustiveResolverCache(keys *mac.KeyStore, nodes []packet.NodeID, capacity int) *ExhaustiveResolver {
	if capacity < 1 {
		capacity = 1
	}
	ns := make([]packet.NodeID, len(nodes))
	copy(ns, nodes)
	return &ExhaustiveResolver{keys: keys, nodes: ns, hasher: keys.Hasher(), cacheCap: capacity}
}

// Instrument binds the resolver's counters into reg.
func (r *ExhaustiveResolver) Instrument(reg *obs.Registry) {
	r.tableBuilds = reg.Counter("sink.resolver.table_builds")
	r.cacheHits = reg.Counter("sink.resolver.cache_hits")
	r.cacheMisses = reg.Counter("sink.resolver.cache_misses")
	r.candidates = reg.Counter("sink.resolver.candidates")
	r.hasher.Instrument(reg)
}

// Resolve implements Resolver. The prev hint is ignored: the table already
// narrows candidates to exact anonymous-ID matches. The epoch is ignored
// too — the exhaustive method hashes the whole node universe, which no
// amount of route churn changes, so it is epoch-proof by construction.
func (r *ExhaustiveResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, _ packet.NodeID, _ bool, _ topology.EpochVersion, yield func(packet.NodeID) bool) {
	for _, id := range r.lookup(report)[anon] {
		r.candidates.Inc()
		if yield(id) {
			return
		}
	}
}

// lookup returns the table for report, serving it from the LRU cache or
// building and inserting it.
func (r *ExhaustiveResolver) lookup(report packet.Report) map[[packet.AnonIDLen]byte][]packet.NodeID {
	for i := range r.cache {
		if r.cache[i].report == report {
			r.cacheHits.Inc()
			if i > 0 { // move to front
				e := r.cache[i]
				copy(r.cache[1:i+1], r.cache[:i])
				r.cache[0] = e
			}
			return r.cache[0].table
		}
	}
	r.cacheMisses.Inc()
	table := r.buildTable(report)
	if len(r.cache) < r.cacheCap {
		r.cache = append(r.cache, tableEntry{})
	}
	copy(r.cache[1:], r.cache[:len(r.cache)-1])
	r.cache[0] = tableEntry{report: report, table: table}
	return table
}

// buildTable computes the full anonymous-ID table for one report — the
// operation whose feasibility §4.2 argues from hash throughput. It is
// O(n) HMACs per report, so it runs on the cached key schedules with the
// report encoded once: after the first build has populated the hasher,
// each entry costs two SHA-256 state restores and no allocation beyond
// the table itself.
func (r *ExhaustiveResolver) buildTable(report packet.Report) map[[packet.AnonIDLen]byte][]packet.NodeID {
	r.tableBuilds.Inc()
	table := make(map[[packet.AnonIDLen]byte][]packet.NodeID, len(r.nodes))
	r.in.SetReport(report)
	for _, id := range r.nodes {
		var a [packet.AnonIDLen]byte
		if r.anonID != nil {
			a = r.anonID(r.keys.Key(id), report, id)
		} else {
			a = r.hasher.Schedule(id).AnonIDInput(&r.in, id)
		}
		table[a] = append(table[a], id)
	}
	return table
}

// TopologyResolver implements the §7 optimization: the sink knows the
// routing topology, so instead of hashing the whole network per report it
// searches only the nodes that could have produced the mark.
//
// Two facts bound the search. First, the marker of a hinted mark must lie
// strictly upstream of the previously verified node — inside that node's
// routing subtree — so the resolver walks the subtree outward from the
// hint. Second, for the packet's most downstream (unhinted) mark, the
// marker is typically within ~1/p hops of the sink, so a breadth-first
// expansion from the sink finds it after touching a small, depth-ordered
// fraction of the network. The paper states the idea for one-hop neighbors
// (exact for deterministic nested marking); with probabilistic marking the
// gap between consecutive markers averages 1/p hops and the search expands
// accordingly.
//
// A third fact orders the search before it widens. The report M = E|L|T
// names its claimed source L, and every honest marker sits on L's route to
// the sink in the packet's epoch. So Resolve first probes the route from L
// up to the search root (the sink, or the verified hint), shallowest node
// first, and only then runs the depth-ordered BFS, which skips the one
// route node per level it has already probed. L is untrusted: a mole may
// claim any location, so L only reorders the probes and never removes a
// candidate. The route pass is skipped when L is not a routed node of the
// epoch, or when its route reaches the sink without meeting the hint; the
// BFS alone then runs, exactly as without a route. A mark that matches no
// key costs exactly the root's subtree either way; an accepted one costs
// at most the BFS's probes plus one route length, so a lying L costs at
// most one wasted route walk.
//
// The search streams every anonymous-ID match to the caller in this order
// and keeps expanding until the caller accepts one. Stopping at the first
// matching depth would diverge from the exhaustive base method: a
// truncated-ID collision at a shallower depth would shadow the true,
// deeper marker, its MAC check would fail, and an honest chain would be
// reported stopped. Honest traffic still pays only O(d·depth) — the true
// marker is the shallowest match almost always, and the caller accepts it
// immediately; the full-subtree sweep happens only for genuinely invalid
// marks, which the base method pays O(n) for as well.
//
// Because the route pass changes only the order of candidates, it can
// accept a different node than the BFS alone only when one mark is valid
// under two distinct nodes: both the 4-byte anonymous ID and the 8-byte
// MAC must match under each key, about 2^-96 per mark for honest traffic.
// Even a mole that holds both keys must search about 2^64 messages (the
// MAC's width) to forge one such mark, and either order then accepts a
// node whose key the mole holds. Any other mark is accepted at the same
// node, or rejected, in either order.
//
// pnmlint:single-goroutine — owned by one goroutine for its lifetime like
// every sink-side object (see the package doc's Ownership section). The
// ownership analyzer enforces this.
type TopologyResolver struct {
	keys   *mac.KeyStore
	epochs *topology.EpochSet
	hasher *mac.Hasher
	anonID anonIDFunc // test seam; nil selects the schedule-backed engine
	// in is the anonymous-ID input of the report being resolved: encoded
	// once per Resolve, so each probe writes only its node ID.
	in mac.AnonInput
	// trees holds one downlink adjacency per epoch, indexed by version,
	// built lazily and cached forever (epochs are immutable, and their
	// count is bounded by the churn events of a run); nil marks an epoch
	// not yet built.
	trees []*childTree
	// frontier/next are the BFS level buffers, reused across Resolve
	// calls so a steady-state resolution allocates nothing. Safe only
	// because the type is single-goroutine (see above).
	frontier []packet.NodeID
	next     []packet.NodeID
	// route is the claimed source's route buffer, deepest node first,
	// reused like the level buffers.
	route []packet.NodeID
	// visits and hits count one Resolve's node visits and schedule hits;
	// Resolve publishes them with one add each before returning.
	visits, hits uint64

	// obs bindings; nil (no-op) unless Instrument was called.
	probes     *obs.Counter
	candidates *obs.Counter
}

// childTree is one epoch's downlink adjacency in compressed sparse row
// form: node v's children are kids[start[v]:start[v+1]], in ID order. net
// is the epoch's immutable snapshot, kept for the route pass's uplinks.
type childTree struct {
	net   *topology.Network
	start []int32
	kids  []packet.NodeID
}

// of returns node v's children; the slice is shared, read-only state. An
// ID outside the epoch's network has none.
func (t *childTree) of(v packet.NodeID) []packet.NodeID {
	if int(v)+1 >= len(t.start) {
		return nil
	}
	return t.kids[t.start[v]:t.start[v+1]]
}

// NewTopologyResolver returns a resolver that exploits the known topology.
// The network is treated as the base (and only) epoch; every packet
// resolves against it, which is exactly the pre-epoch behavior for static
// deployments.
func NewTopologyResolver(keys *mac.KeyStore, topo *topology.Network) *TopologyResolver {
	return NewTopologyResolverEpochs(keys, topology.NewEpochSet(topo))
}

// NewTopologyResolverEpochs returns a resolver over a dynamic topology:
// each Resolve walks the snapshot named by the packet's arrival epoch.
// The set may keep growing (the fault machinery appends on every route
// repair) while resolvers read it from their own goroutines.
func NewTopologyResolverEpochs(keys *mac.KeyStore, epochs *topology.EpochSet) *TopologyResolver {
	r := &TopologyResolver{keys: keys, epochs: epochs, hasher: keys.Hasher()}
	r.buildTree(0)
	return r
}

// tree returns the downlink adjacency of epoch v.
func (r *TopologyResolver) tree(v topology.EpochVersion) *childTree {
	if v < topology.EpochVersion(len(r.trees)) && r.trees[v] != nil {
		return r.trees[v]
	}
	return r.buildTree(v)
}

// buildTree builds and caches the adjacency of epoch v. A version the
// set does not hold yet (possible only through a corrupted stamp) is
// served the newest epoch's tree, as EpochSet.At clamps it, and cached
// under that epoch's own version. Orphaned nodes (depth -1 after a
// partition-causing fault) are excluded: they have no forwarding parent
// in that epoch, so no mark can originate downstream of them.
func (r *TopologyResolver) buildTree(v topology.EpochVersion) *childTree {
	if n := topology.EpochVersion(r.epochs.Len()); v >= n {
		return r.tree(n - 1)
	}
	net := r.epochs.At(v)
	nodes := net.Nodes()
	t := &childTree{net: net, start: make([]int32, len(nodes)+2)}
	for _, id := range nodes {
		if net.HasRoute(id) {
			t.start[int(net.Parent(id))+1]++
		}
	}
	for i := 1; i < len(t.start); i++ {
		t.start[i] += t.start[i-1]
	}
	t.kids = make([]packet.NodeID, t.start[len(t.start)-1])
	fill := make([]int32, len(nodes)+1)
	copy(fill, t.start)
	for _, id := range nodes {
		if net.HasRoute(id) {
			p := net.Parent(id)
			t.kids[fill[p]] = id
			fill[p]++
		}
	}
	for int(v) >= len(r.trees) {
		r.trees = append(r.trees, nil)
	}
	r.trees[v] = t
	return t
}

// Instrument binds the resolver's counters into reg.
func (r *TopologyResolver) Instrument(reg *obs.Registry) {
	r.probes = reg.Counter("sink.resolver.probes")
	r.candidates = reg.Counter("sink.resolver.candidates")
	r.hasher.Instrument(reg)
}

// Resolve implements Resolver. Node visits and schedule hits are counted
// on the resolver and published with one add each before returning, early
// accept included: shards sharing a registry would otherwise contend on
// the same two counters once per probe.
// pnmlint:noalloc
func (r *TopologyResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	// The routing tree of the packet's arrival epoch, built by the first
	// packet resolved under that epoch.
	tree := r.tree(epoch)
	start := prev
	if !havePrev {
		// The most downstream mark: search the whole routing tree outward
		// from the sink; the marker usually sits within ~1/p hops.
		start = packet.SinkID
	}
	r.in.SetReport(report)
	r.visits, r.hits = 0, 0
	// Route pass: the claimed source's route below start, shallowest
	// first (see the type comment on why an untrusted L is safe here).
	route := r.claimedRoute(tree.net, report.Location, start)
	done := false
	for i := len(route) - 1; i >= 0 && !done; i-- {
		done = r.probe(route[i], report, anon, yield)
	}
	if !done {
		r.bfs(tree, start, route, report, anon, yield)
	}
	r.probes.Add(r.visits)
	r.hasher.AddHits(r.hits)
}

// bfs probes the routing subtree of start level by level, streaming
// matches in depth order. The expansion continues past levels whose
// matches the caller rejects — see the type comment on collision
// robustness. The route node at level k (start's children are level 1) is
// route[len(route)-k]; the route pass has already probed it, so it is
// only expanded here.
// pnmlint:noalloc
func (r *TopologyResolver) bfs(tree *childTree, start packet.NodeID, route []packet.NodeID, report packet.Report, anon [packet.AnonIDLen]byte, yield func(packet.NodeID) bool) {
	// The two level buffers live on the resolver and are reused across
	// calls (their capacities converge on the widest level, after which a
	// resolution allocates nothing); they are swapped between iterations,
	// so the initial frontier must be a copy: the tree's slices are
	// shared state. Both headers are stored back before returning — even
	// on early accept — so growth is never lost.
	frontier := append(r.frontier[:0], tree.of(start)...)
	next := r.next[:0]
	done := false
	for level := 1; len(frontier) > 0 && !done; level++ {
		skip := packet.SinkID // never a child, so skips nothing
		if level <= len(route) {
			skip = route[len(route)-level]
		}
		next = next[:0]
		for _, v := range frontier {
			if v != skip && r.probe(v, report, anon, yield) {
				done = true
				break
			}
			next = append(next, tree.of(v)...)
		}
		frontier, next = next, frontier
	}
	r.frontier, r.next = frontier, next
}

// claimedRoute fills r.route with the route from the report's claimed
// source loc up to, but excluding, start in net, deepest node first. It
// returns an empty route when loc is not a routed node of net or when the
// route reaches the sink without meeting start.
// pnmlint:noalloc
func (r *TopologyResolver) claimedRoute(net *topology.Network, loc uint32, start packet.NodeID) []packet.NodeID {
	route := r.route[:0]
	if loc == uint32(packet.SinkID) || loc > uint32(net.NumNodes()) || !net.HasRoute(packet.NodeID(loc)) {
		return route
	}
	for v := packet.NodeID(loc); v != start; v = net.Parent(v) {
		if v == packet.SinkID {
			route = route[:0]
			break
		}
		route = append(route, v)
	}
	r.route = route
	return route
}

// probe is one node visit, shared by the route pass and the BFS: it
// computes v's anonymous ID for the report being resolved and, on a
// match, offers v to the caller. It reports whether the caller accepted.
// pnmlint:noalloc
func (r *TopologyResolver) probe(v packet.NodeID, report packet.Report, anon [packet.AnonIDLen]byte, yield func(packet.NodeID) bool) bool {
	r.visits++
	var a [packet.AnonIDLen]byte
	if r.anonID != nil {
		a = r.anonID(r.keys.Key(v), report, v)
	} else {
		s, hit := r.hasher.Lookup(v)
		if hit {
			r.hits++
		}
		a = s.AnonIDInput(&r.in, v)
	}
	if a != anon {
		return false
	}
	r.candidates.Inc()
	return yield(v)
}
