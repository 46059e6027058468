package sink

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin the tentpole invariant of the sink hot path:
// the §7 O(d) TopologyResolver must be observationally equivalent to the
// exhaustive base method, including when truncated anonymous IDs collide.
// The pre-fix TopologyResolver returned only the first BFS depth level
// with any anonymous-ID match, so a collision at a shallower depth
// shadowed the true marker and an honest chain was wrongly reported
// Stopped — the shallower-than-marker and sibling-subtree fixtures below
// fail against that implementation.

// appendAnonMark appends an anonymous nested mark carrying an explicit
// anonymous ID, computing the MAC exactly as marking.PNM does. Building
// marks by hand lets a test pick anon IDs that collide.
func appendAnonMark(msg packet.Message, key mac.Key, anon [packet.AnonIDLen]byte) packet.Message {
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{
		Anonymous: true,
		AnonID:    anon,
		MAC:       marking.NestedMACAnon(key, msg, len(msg.Marks), anon),
	})
	return out
}

// collideAnonID returns an anonIDFunc under which impostor's anonymous ID
// equals victim's real one for every report — an exact manufactured
// truncation collision; all other nodes keep their real IDs.
func collideAnonID(victim, impostor packet.NodeID) anonIDFunc {
	return func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		if id == impostor {
			return mac.AnonID(testKS.Key(victim), report, victim)
		}
		return mac.AnonID(k, report, id)
	}
}

// verifyWith runs NestedVerifier over msg with the given resolver.
func verifyWith(t *testing.T, topo *topology.Network, r Resolver, msg packet.Message) Result {
	t.Helper()
	v := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: r}
	return v.Verify(msg)
}

// equivGrid builds the 5x5 grid all collision fixtures run on.
func equivGrid(t *testing.T) *topology.Network {
	t.Helper()
	topo, err := topology.NewGrid(topology.GridConfig{Width: 5, Height: 5, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// childrenOf rebuilds the routing tree's downlink adjacency, in ID order,
// for fixture selection and the BFS-only reference. Orphans (no route in
// topo) are nobody's children.
func childrenOf(topo *topology.Network) map[packet.NodeID][]packet.NodeID {
	children := make(map[packet.NodeID][]packet.NodeID)
	for _, id := range topo.Nodes() {
		if !topo.HasRoute(id) {
			continue
		}
		p := topo.Parent(id)
		children[p] = append(children[p], id)
	}
	return children
}

// nodeAtDepth returns some node at the requested depth, excluding the
// given ones.
func nodeAtDepth(t *testing.T, topo *topology.Network, depth int, exclude ...packet.NodeID) packet.NodeID {
	t.Helper()
	for _, id := range topo.Nodes() {
		if topo.Depth(id) != depth {
			continue
		}
		skip := false
		for _, x := range exclude {
			if id == x {
				skip = true
			}
		}
		if !skip {
			return id
		}
	}
	t.Fatalf("no node at depth %d", depth)
	return 0
}

// TestTopologyResolverCollisionFixtures manufactures 4-byte anonymous-ID
// collisions at the places a collision can sit relative to the true
// marker and its claimed route, and asserts both resolvers accept the
// honest chain and agree with each other in every case. Each fixture runs
// under every claimed location of claimedLocations, on a grid with one
// leaf orphaned, and the topology resolver must also accept the same node
// for every mark as the BFS-only reference.
func TestTopologyResolverCollisionFixtures(t *testing.T) {
	topo, orphan := gridWithOrphan(t)
	children := childrenOf(topo)

	// The honest markers: a deep node and its parent's parent — a real
	// routing sub-path markers could produce.
	deep := topo.DeepestNode()
	deepRoute := topo.PathToSink(deep)

	// For the sibling-subtree case, find a hint node with at least two
	// subtree branches, a marker two levels up one branch, and an
	// impostor one level up another branch.
	var hint, sibVictim, sibImpostor packet.NodeID
	for _, prev := range topo.Nodes() {
		kids := children[prev]
		if len(kids) < 2 {
			continue
		}
		for _, c1 := range kids {
			if len(children[c1]) == 0 {
				continue
			}
			for _, c2 := range kids {
				if c2 != c1 {
					hint, sibVictim, sibImpostor = prev, children[c1][0], c2
					break
				}
			}
			if hint != 0 {
				break
			}
		}
		if hint != 0 {
			break
		}
	}
	if hint == 0 {
		t.Fatal("grid yielded no branch point for the sibling-subtree fixture")
	}

	fixtures := []struct {
		name     string
		victim   packet.NodeID // true marker whose anon ID is collided with
		impostor packet.NodeID // node forced to share the victim's anon ID
		markers  []packet.NodeID
	}{
		{
			// The impostor sits at a shallower BFS depth than the marker:
			// the pre-fix resolver returned the impostor's level and never
			// reached the marker.
			name:     "shallower-than-marker",
			victim:   deep,
			impostor: nodeAtDepth(t, topo, 1, deep),
			markers:  []packet.NodeID{deep},
		},
		{
			// Impostor at the marker's own depth: both stream in the same
			// BFS level and the MAC disambiguates (worked pre-fix too —
			// pinned so the fix never regresses it). The deepest grid node
			// is a unique corner, so this fixture uses one level up, where
			// the grid has two nodes.
			name:     "same-depth",
			victim:   nodeAtDepth(t, topo, topo.Depth(deep)-1),
			impostor: nodeAtDepth(t, topo, topo.Depth(deep)-1, nodeAtDepth(t, topo, topo.Depth(deep)-1)),
			markers:  []packet.NodeID{nodeAtDepth(t, topo, topo.Depth(deep)-1)},
		},
		{
			// Hinted search: the marker is two levels above the verified
			// hint, the impostor one level up a sibling branch — the
			// impostor's level is exhausted before the marker's.
			name:     "sibling-subtree",
			victim:   sibVictim,
			impostor: sibImpostor,
			markers:  []packet.NodeID{sibVictim, hint},
		},
		{
			// The impostor is shallower than the marker and off the
			// claimed route: the BFS yields it first, the route pass
			// under an honest location never probes it.
			name:     "shallower-off-route",
			victim:   deep,
			impostor: offRoute(t, topo, deepRoute, 2),
			markers:  []packet.NodeID{deep},
		},
		{
			// The impostor is on the marker's route, between the marker
			// and the sink: the route pass yields it first, its MAC fails
			// and the walk goes on to the marker.
			name:     "on-route",
			victim:   deep,
			impostor: deepRoute[len(deepRoute)-3],
			markers:  []packet.NodeID{deep},
		},
	}

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			if d := topo.Depth(fx.impostor); (fx.name == "shallower-than-marker" || fx.name == "shallower-off-route") && d >= topo.Depth(fx.victim) {
				t.Fatalf("fixture invalid: impostor depth %d not shallower than victim depth %d", d, topo.Depth(fx.victim))
			}
			if onRoute := contains(deepRoute, fx.impostor); fx.name == "on-route" && !onRoute || fx.name == "shallower-off-route" && onRoute {
				t.Fatalf("fixture invalid: impostor %d on route %v is %v", fx.impostor, deepRoute, onRoute)
			}
			anonFn := collideAnonID(fx.victim, fx.impostor)
			for _, cl := range claimedLocations(t, topo, topo.PathToSink(fx.markers[0]), orphan) {
				t.Run(cl.name, func(t *testing.T) {
					// Build the honest packet: markers upstream-first,
					// each mark carrying the anon ID the resolver will
					// compute for it.
					rep := testReport(100)
					rep.Location = cl.loc
					msg := packet.Message{Report: rep}
					for _, id := range fx.markers {
						msg = appendAnonMark(msg, testKS.Key(id), anonFn(testKS.Key(id), rep, id))
					}

					exh := NewExhaustiveResolver(testKS, topo.Nodes())
					exh.anonID = anonFn
					want := verifyWith(t, topo, exh, msg)
					if want.Stopped || len(want.Chain) != len(fx.markers) {
						t.Fatalf("exhaustive baseline rejected the honest chain: %+v", want)
					}
					got, err := checkAgainstBFS(topology.NewEpochSet(topo), 0, msg, anonFn)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("topology resolver diverged from exhaustive baseline:\n got %+v\nwant %+v", got, want)
					}
					for i, id := range fx.markers {
						if got.Chain[i] != id {
							t.Fatalf("chain = %v, want %v", got.Chain, fx.markers)
						}
					}
				})
			}
		})
	}
}

// TestResolverEquivalenceProperty drives randomized geometric topologies
// and honest PNM chains through both resolvers and asserts identical
// results — the §7 optimization must be a pure speedup. One random node
// is crashed and the tree rerouted, so every packet travels and resolves
// in an epoch with orphans; each chain is checked under every claimed
// location of claimedLocations, against the exhaustive base method and
// mark by mark against the BFS-only reference.
func TestResolverEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func(seed int64, pRaw uint8) bool {
		set, net, orphan, ok := repairedGeometric(seed)
		if !ok {
			return false
		}
		p := 0.3 + float64(pRaw%8)/10 // 0.3 .. 1.0
		scheme := marking.PNM{P: p}
		src := net.DeepestNode()
		for _, cl := range claimedLocations(t, net, net.PathToSink(src), orphan) {
			runRng := rand.New(rand.NewSource(seed))
			msg := packet.Message{Report: packet.Report{Event: runRng.Uint32(), Location: cl.loc, Seq: runRng.Uint32()}}
			msg = scheme.Mark(src, testKS.Key(src), msg, runRng)
			for _, hop := range net.Forwarders(src) {
				msg = scheme.Mark(hop, testKS.Key(hop), msg, runRng)
			}
			if !equivalentEverywhere(t, set, msg, nil, cl.name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestResolverEquivalenceUnderForcedCollisionsProperty repeats the
// equivalence check with anonymous IDs truncated to six bits, so every
// packet's marks collide with several other nodes — the regime the
// collision fix exists for. Chains are built by hand because the marks
// must carry the truncated IDs.
func TestResolverEquivalenceUnderForcedCollisionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// Six-bit anonymous IDs: with 60 nodes, expected ~1 collision per ID.
	trunc := func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		a := mac.AnonID(k, report, id)
		return [packet.AnonIDLen]byte{a[0] & 0x3F, 0, 0, 0}
	}
	f := func(seed int64, every uint8) bool {
		set, net, orphan, ok := repairedGeometric(seed)
		if !ok {
			return false
		}
		src := net.DeepestNode()
		stride := int(every%3) + 1 // mark every 1st/2nd/3rd hop
		path := net.PathToSink(src)
		for _, cl := range claimedLocations(t, net, path, orphan) {
			rep := packet.Report{Event: uint32(seed), Location: cl.loc, Seq: uint32(every)}
			msg := packet.Message{Report: rep}
			for i, hop := range path {
				if i%stride == 0 {
					msg = appendAnonMark(msg, testKS.Key(hop), trunc(testKS.Key(hop), rep, hop))
				}
			}
			if !equivalentEverywhere(t, set, msg, trunc, cl.name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// repairedGeometric builds a 60-node geometric field, crashes one node
// chosen by seed and reroutes. It returns both epochs, the repaired tree
// (the packet's epoch, version 1) and the crashed node, which has no
// route there. The crashed node is at least two hops out, so the sink's
// neighbors keep their routes.
func repairedGeometric(seed int64) (*topology.EpochSet, *topology.Network, packet.NodeID, bool) {
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: seed, SinkAtCorner: true,
	})
	if err != nil {
		return nil, nil, 0, false
	}
	n := uint64(base.NumNodes())
	down := packet.NodeID(1 + uint64(seed)%n)
	for base.Depth(down) < 2 {
		down = packet.NodeID(1 + uint64(down)%n)
	}
	net := base.Reroute(func(id packet.NodeID) bool { return id == down }, nil)
	set := topology.NewEpochSet(base)
	if set.Advance(net).Version != 1 {
		return nil, nil, 0, false
	}
	return set, net, down, true
}

// equivalentEverywhere verifies msg in epoch 1 of set with the exhaustive
// base method, the topology resolver and the BFS-only reference, and
// reports whether the base method accepted every mark and the other two
// agree with it, mark by mark.
func equivalentEverywhere(t *testing.T, set *topology.EpochSet, msg packet.Message, anonFn anonIDFunc, claim string) bool {
	t.Helper()
	net := set.At(1)
	exh := NewExhaustiveResolver(testKS, net.Nodes())
	exh.anonID = anonFn
	want := (&NestedVerifier{keys: testKS, numNodes: net.NumNodes(), resolver: exh}).VerifyAt(msg, 1)
	if want.Stopped || len(want.Chain) != len(msg.Marks) {
		t.Logf("claim %s: exhaustive baseline rejected the honest chain: %+v", claim, want)
		return false
	}
	got, err := checkAgainstBFS(set, 1, msg, anonFn)
	if err != nil {
		t.Logf("claim %s: %v", claim, err)
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Logf("claim %s: topology %+v, exhaustive %+v", claim, got, want)
		return false
	}
	return true
}

// TestTopologyResolverStreamsAcrossDepths pins the streaming contract
// directly at the Resolver interface: every anonymous-ID match in the
// subtree is yielded, shallower depths first, not just the first matching
// level.
func TestTopologyResolverStreamsAcrossDepths(t *testing.T) {
	topo, err := topology.NewChain(6)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 2 and 5 share an anonymous ID; node 5 is the true marker.
	anonFn := collideAnonID(5, 2)
	r := NewTopologyResolver(testKS, topo)
	r.anonID = anonFn
	rep := testReport(110)
	anon := mac.AnonID(testKS.Key(5), rep, 5)

	got := ResolveAll(r, rep, anon, 0, false, 0)
	want := []packet.NodeID{2, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidate stream = %v, want %v", got, want)
	}

	// Early acceptance stops the stream — the §7 O(d) fast path.
	var first []packet.NodeID
	r.Resolve(rep, anon, 0, false, 0, func(id packet.NodeID) bool {
		first = append(first, id)
		return true
	})
	if len(first) != 1 || first[0] != 2 {
		t.Fatalf("accepting stream = %v, want just [V2]", first)
	}

	// A report claiming node 5 puts both matches on the route pass, which
	// walks the route shallowest first: the stream keeps depth order.
	rep.Location = 5
	anon = mac.AnonID(testKS.Key(5), rep, 5)
	if got := ResolveAll(r, rep, anon, 0, false, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("candidate stream under L=5 = %v, want %v", got, want)
	}
}

// TestCollisionFixtureWouldFailPreFix documents the bug shape: a resolver
// that cuts the stream at the first matching depth (the pre-fix behavior,
// reconstructed here) makes the verifier reject the honest chain that the
// fixed resolver accepts.
func TestCollisionFixtureWouldFailPreFix(t *testing.T) {
	topo := equivGrid(t)
	deep := topo.DeepestNode()
	impostor := nodeAtDepth(t, topo, 1, deep)
	anonFn := collideAnonID(deep, impostor)

	rep := testReport(120)
	msg := packet.Message{Report: rep}
	msg = appendAnonMark(msg, testKS.Key(deep), anonFn(testKS.Key(deep), rep, deep))

	fixed := NewTopologyResolver(testKS, topo)
	fixed.anonID = anonFn
	if res := verifyWith(t, topo, fixed, msg); res.Stopped || len(res.Chain) != 1 || res.Chain[0] != deep {
		t.Fatalf("fixed resolver rejected the honest chain: %+v", res)
	}

	preFix := &firstDepthResolver{inner: fixed, topo: topo}
	if res := verifyWith(t, topo, preFix, msg); !res.Stopped {
		t.Fatalf("pre-fix behavior unexpectedly accepted the chain: %+v", res)
	}
}

// firstDepthResolver replays the pre-fix semantics on top of the fixed
// resolver: it forwards only candidates from the first depth level that
// produced any match.
type firstDepthResolver struct {
	inner *TopologyResolver
	topo  *topology.Network
}

// Resolve implements Resolver with the pre-fix early cut.
func (r *firstDepthResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	matchDepth := -1
	r.inner.Resolve(report, anon, prev, havePrev, epoch, func(id packet.NodeID) bool {
		d := r.topo.Depth(id)
		if matchDepth == -1 {
			matchDepth = d
		}
		if d != matchDepth {
			return true // pre-fix: deeper levels were never searched
		}
		return yield(id)
	})
}

// TestResolverEquivalenceExhaustsBothOrders cross-checks candidate sets of
// the two resolvers over a mid-size random topology for a spread of anon
// IDs (real and colliding): same members, possibly different order.
func TestResolverEquivalenceExhaustsBothOrders(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 50, Side: 5, RadioRange: 1.5, Seed: 77, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trunc := func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		a := mac.AnonID(k, report, id)
		return [packet.AnonIDLen]byte{a[0] & 0xF, 0, 0, 0}
	}
	exh := NewExhaustiveResolver(testKS, topo.Nodes())
	exh.anonID = trunc
	topoR := NewTopologyResolver(testKS, topo)
	topoR.anonID = trunc

	rep := testReport(130)
	for _, id := range topo.Nodes() {
		anon := trunc(testKS.Key(id), rep, id)
		a := ResolveAll(exh, rep, anon, 0, false, 0)
		b := ResolveAll(topoR, rep, anon, 0, false, 0)
		if !sameMembers(a, b) {
			t.Fatalf("candidate sets differ for %v: exhaustive %v, topology %v", id, a, b)
		}
		if !contains(b, id) {
			t.Fatalf("topology resolver missed the true node %v", id)
		}
	}
}

// sameMembers reports whether two candidate slices hold the same set.
func sameMembers(a, b []packet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[packet.NodeID]int, len(a))
	for _, id := range a {
		seen[id]++
	}
	for _, id := range b {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}

// bfsOnlyResolver is the reference the route pass is checked against:
// the depth-ordered BFS through the routing subtree of the sink or the
// hint in the packet's epoch, with no route pass, written against the
// topology directly.
type bfsOnlyResolver struct {
	epochs *topology.EpochSet
	anonID anonIDFunc // nil: the real anonymous ID
	visits int        // anonymous-ID computations, across calls
}

// Resolve implements Resolver.
func (r *bfsOnlyResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	children := childrenOf(r.epochs.At(epoch))
	start := packet.SinkID
	if havePrev {
		start = prev
	}
	for frontier := children[start]; len(frontier) > 0; {
		var next []packet.NodeID
		for _, v := range frontier {
			r.visits++
			a := mac.AnonID(testKS.Key(v), report, v)
			if r.anonID != nil {
				a = r.anonID(testKS.Key(v), report, v)
			}
			if a == anon && yield(v) {
				return
			}
			next = append(next, children[v]...)
		}
		frontier = next
	}
}

// acceptLog wraps a resolver and records, per Resolve call, the node the
// caller accepted, or the sink when it accepted none.
type acceptLog struct {
	Resolver
	accepted []packet.NodeID
}

// Resolve implements Resolver.
func (l *acceptLog) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	got := packet.SinkID
	l.Resolver.Resolve(report, anon, prev, havePrev, epoch, func(id packet.NodeID) bool {
		if yield(id) {
			got = id
			return true
		}
		return false
	})
	l.accepted = append(l.accepted, got)
}

// checkAgainstBFS verifies msg in the given epoch of set with the
// topology resolver and with the BFS-only reference. It returns the
// topology resolver's Result, and an error unless both give the same
// Result and accept the same node for every mark.
func checkAgainstBFS(set *topology.EpochSet, epoch topology.EpochVersion, msg packet.Message, anonFn anonIDFunc) (Result, error) {
	topoR := NewTopologyResolverEpochs(testKS, set)
	topoR.anonID = anonFn
	got := &acceptLog{Resolver: topoR}
	want := &acceptLog{Resolver: &bfsOnlyResolver{epochs: set, anonID: anonFn}}
	n := set.At(0).NumNodes()
	a := (&NestedVerifier{keys: testKS, numNodes: n, resolver: got}).VerifyAt(msg, epoch)
	b := (&NestedVerifier{keys: testKS, numNodes: n, resolver: want}).VerifyAt(msg, epoch)
	if !reflect.DeepEqual(a, b) {
		return a, fmt.Errorf("route-first result %+v, BFS-only %+v", a, b)
	}
	if !reflect.DeepEqual(got.accepted, want.accepted) {
		return a, fmt.Errorf("route-first accepted %v, BFS-only %v", got.accepted, want.accepted)
	}
	return a, nil
}

// claimedLoc is one report location L the route pass is checked under.
type claimedLoc struct {
	name string
	loc  uint32
}

// claimedLocations returns the locations a report from path[0] is checked
// under, where path is its route in net (source first): the true source,
// a routed node on another branch, orphan (a node without a route in
// net), the sink, two out-of-range values (one that aliases the source
// when truncated to a node ID), and the path node next to the sink, whose
// route misses every deeper hint. The other-branch case is left out only
// when net has no routed node off the path's branch.
func claimedLocations(t *testing.T, net *topology.Network, path []packet.NodeID, orphan packet.NodeID) []claimedLoc {
	t.Helper()
	if net.HasRoute(orphan) {
		t.Fatalf("node %d has a route; it cannot stand for an orphan", orphan)
	}
	src := uint32(path[0])
	out := []claimedLoc{
		{"source", src},
		{"orphan", uint32(orphan)},
		{"sink", uint32(packet.SinkID)},
		{"out-of-range", uint32(net.NumNodes() + 1)},
		{"out-of-range-alias", 1<<16 | src},
		{"misses-prev", uint32(path[len(path)-1])},
	}
	if other := offBranch(net, path); other != packet.SinkID {
		out = append(out, claimedLoc{"other-branch", uint32(other)})
	}
	return out
}

// offBranch returns the deepest routed node of net whose route to the
// sink shares no node with path (lowest ID on ties), or the sink if there
// is none.
func offBranch(net *topology.Network, path []packet.NodeID) packet.NodeID {
	best := packet.SinkID
	for _, id := range net.Nodes() {
		if !net.HasRoute(id) || (best != packet.SinkID && net.Depth(id) <= net.Depth(best)) {
			continue
		}
		disjoint := true
		for v := id; v != packet.SinkID; v = net.Parent(v) {
			if contains(path, v) {
				disjoint = false
				break
			}
		}
		if disjoint {
			best = id
		}
	}
	return best
}

// offRoute returns the lowest-ID node at depth that is not on route.
func offRoute(t *testing.T, topo *topology.Network, route []packet.NodeID, depth int) packet.NodeID {
	t.Helper()
	for _, id := range topo.Nodes() {
		if topo.Depth(id) == depth && !contains(route, id) {
			return id
		}
	}
	t.Fatalf("no off-route node at depth %d", depth)
	return 0
}

// gridWithOrphan returns equivGrid rerouted around its lowest-ID leaf
// other than the deepest node. The leaf loses its route and nothing else
// moves: no node was routed through it.
func gridWithOrphan(t *testing.T) (*topology.Network, packet.NodeID) {
	t.Helper()
	grid := equivGrid(t)
	children := childrenOf(grid)
	for _, id := range grid.Nodes() {
		if len(children[id]) > 0 || id == grid.DeepestNode() {
			continue
		}
		net := grid.Reroute(func(v packet.NodeID) bool { return v == id }, nil)
		for _, v := range grid.Nodes() {
			if v != id && net.Parent(v) != grid.Parent(v) {
				t.Fatalf("fixture drift: orphaning leaf %d moved node %d", id, v)
			}
		}
		return net, id
	}
	t.Fatal("grid has no leaf")
	return nil, 0
}

// TestRouteFirstDivergesOnlyOnDoublyValidMarks pins the one case where
// the route pass may accept a different node than the BFS alone: a mark
// the caller accepts under two distinct nodes. A route node and a
// shallower off-route node share the anonymous ID; a caller that accepts
// both gets the route node from the topology resolver and the shallower
// node from the BFS-only reference. A caller that accepts just one of
// them gets that one from both, whichever it is.
func TestRouteFirstDivergesOnlyOnDoublyValidMarks(t *testing.T) {
	topo := equivGrid(t)
	deep := topo.DeepestNode()
	route := topo.PathToSink(deep)
	onRoute := route[len(route)-3]
	shallow := offRoute(t, topo, route, 1)
	if topo.Depth(shallow) >= topo.Depth(onRoute) {
		t.Fatalf("fixture drift: off-route node %d not shallower than route node %d", shallow, onRoute)
	}
	anonFn := collideAnonID(onRoute, shallow)
	rep := testReport(140)
	rep.Location = uint32(deep)
	anon := anonFn(testKS.Key(onRoute), rep, onRoute)
	set := topology.NewEpochSet(topo)

	accepted := func(r Resolver, valid ...packet.NodeID) packet.NodeID {
		got := packet.SinkID
		r.Resolve(rep, anon, 0, false, 0, func(id packet.NodeID) bool {
			if contains(valid, id) {
				got = id
				return true
			}
			return false
		})
		return got
	}
	for _, tc := range []struct {
		valid          []packet.NodeID
		route, bfsOnly packet.NodeID
	}{
		{[]packet.NodeID{onRoute, shallow}, onRoute, shallow},
		{[]packet.NodeID{onRoute}, onRoute, onRoute},
		{[]packet.NodeID{shallow}, shallow, shallow},
	} {
		topoR := NewTopologyResolver(testKS, topo)
		topoR.anonID = anonFn
		ref := &bfsOnlyResolver{epochs: set, anonID: anonFn}
		if got, want := accepted(topoR, tc.valid...), accepted(ref, tc.valid...); got != tc.route || want != tc.bfsOnly {
			t.Errorf("valid under %v: route-first accepted %d (want %d), BFS-only %d (want %d)", tc.valid, got, tc.route, want, tc.bfsOnly)
		}
	}
}
