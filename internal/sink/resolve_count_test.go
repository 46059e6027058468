package sink

import (
	"testing"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// TestResolverCountersEqualAcrossShapes folds one keyed multi-source
// stream serially through a Tracker and through a 2-shard Cluster, both
// instrumented, and demands the same resolver counters. Node visits and
// candidates depend only on each packet's marks, so a count lost or
// doubled by the per-Resolve batching shows up as a difference. Every
// schedule lookup is a hit or a miss, so hits+misses is the lookup count,
// which is shape-independent too even though the split is not.
func TestResolverCountersEqualAcrossShapes(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 5, 60, 6, 300)
	counts := func(reg *obs.Registry) map[string]uint64 {
		return map[string]uint64{
			"probes":     reg.Counter("sink.resolver.probes").Value(),
			"candidates": reg.Counter("sink.resolver.candidates").Value(),
			"lookups":    reg.Counter("mac.schedule.hits").Value() + reg.Counter("mac.schedule.misses").Value(),
		}
	}

	serialReg := obs.New()
	tracker := NewTracker(instrumentedFactory(factory, serialReg)(), topo)
	tracker.Instrument(serialReg)
	for _, msg := range stream {
		tracker.Observe(msg)
	}
	want := counts(serialReg)
	if want["probes"] == 0 || want["candidates"] == 0 {
		t.Fatalf("stream resolved nothing: %v", want)
	}

	reg := obs.New()
	c := NewCluster(2, 1, instrumentedFactory(factory, reg), topo, reg)
	defer c.Close()
	for lo := 0; lo < len(stream); lo += 32 {
		c.Observe(stream[lo:min(lo+32, len(stream))], nil)
	}
	if got := counts(reg); got["probes"] != want["probes"] || got["candidates"] != want["candidates"] || got["lookups"] != want["lookups"] {
		t.Fatalf("2-shard counters %v, serial %v", got, want)
	}
}

// TestTopologyResolveCountsEveryProbe checks that once Resolve returns,
// sink.resolver.probes equals the anonymous-ID computations it made —
// through the test seam, counted by the seam itself, and through the
// schedule engine, where every probe is one schedule lookup — for an
// early accept and for a full sweep that rejects every match, with the
// report claiming the target itself (the route pass finds it), a node on
// another branch (the route pass misses) and no routed node (no route
// pass).
func TestTopologyResolveCountsEveryProbe(t *testing.T) {
	topo := equivGrid(t)
	target := nodeAtDepth(t, topo, 3)
	for _, loc := range []uint32{uint32(target), uint32(offBranch(topo, topo.PathToSink(target))), 1 << 20} {
		report := testReport(9)
		report.Location = loc
		anon := realAnonID(target, report)
		for _, seam := range []bool{true, false} {
			for _, accept := range []bool{true, false} {
				reg := obs.New()
				r := NewTopologyResolver(testKS, topo)
				r.Instrument(reg)
				var calls uint64
				if seam {
					r.anonID = func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
						calls++
						return mac.AnonID(k, report, id)
					}
				}
				yields := 0
				r.Resolve(report, anon, 0, false, 0, func(id packet.NodeID) bool {
					yields++
					return accept && id == target
				})
				probes := reg.Counter("sink.resolver.probes").Value()
				if !seam {
					calls = reg.Counter("mac.schedule.hits").Value() + reg.Counter("mac.schedule.misses").Value()
				}
				if probes == 0 || probes != calls {
					t.Errorf("L=%d seam=%v accept=%v: probes = %d, anonymous-ID computations = %d", loc, seam, accept, probes, calls)
				}
				if cand := reg.Counter("sink.resolver.candidates").Value(); cand != uint64(yields) {
					t.Errorf("L=%d seam=%v accept=%v: candidates = %d, yields = %d", loc, seam, accept, cand, yields)
				}
				full := probes == uint64(topo.NumNodes())
				if full == accept {
					t.Errorf("L=%d seam=%v accept=%v: %d probes over %d nodes", loc, seam, accept, probes, topo.NumNodes())
				}
			}
		}
	}

	// A second Resolve on a warm resolver counts only hits.
	report := testReport(9)
	anon := realAnonID(target, report)
	reg := obs.New()
	r := NewTopologyResolver(testKS, topo)
	r.Instrument(reg)
	reject := func(packet.NodeID) bool { return false }
	r.Resolve(report, anon, 0, false, 0, reject)
	misses := reg.Counter("mac.schedule.misses").Value()
	r.Resolve(report, anon, 0, false, 0, reject)
	if hits := reg.Counter("mac.schedule.hits").Value(); hits != misses || reg.Counter("mac.schedule.misses").Value() != misses {
		t.Errorf("warm sweep: hits %d, misses %d, want %d hits and no new miss", hits, reg.Counter("mac.schedule.misses").Value(), misses)
	}
}

// TestRoutePassCostBound pins what the route pass may cost. From the
// sink and from a hint on and off the deepest node's route, under every
// claimed location: a mark that matches nothing visits every node of the
// search root's subtree exactly once, as the BFS alone does; a mark the
// caller accepts at its true node visits at most the BFS-only reference's
// probes plus the claimed route's length below the root, so a lying L
// costs at most one route walk.
func TestRoutePassCostBound(t *testing.T) {
	topo, orphan := gridWithOrphan(t)
	set := topology.NewEpochSet(topo)
	children := childrenOf(topo)
	deep := topo.DeepestNode()
	route := topo.PathToSink(deep)
	subtree := func(root packet.NodeID) []packet.NodeID {
		var out []packet.NodeID
		for frontier := children[root]; len(frontier) > 0; {
			var next []packet.NodeID
			for _, v := range frontier {
				out = append(out, v)
				next = append(next, children[v]...)
			}
			frontier = next
		}
		return out
	}
	// routeLen is the number of nodes the route pass probes: L's route
	// strictly below root, or none when L is unrouted or its route
	// reaches the sink without meeting root.
	routeLen := func(loc uint32, root packet.NodeID) int {
		if loc == 0 || loc > uint32(topo.NumNodes()) || !topo.HasRoute(packet.NodeID(loc)) {
			return 0
		}
		n := 0
		for v := packet.NodeID(loc); v != root; v = topo.Parent(v) {
			if v == packet.SinkID {
				return 0
			}
			n++
		}
		return n
	}

	type root struct {
		id       packet.NodeID
		havePrev bool
	}
	roots := []root{{packet.SinkID, false}, {route[len(route)-2], true}, {offRoute(t, topo, route, 2), true}}
	for _, rt := range roots {
		sub := subtree(rt.id)
		for _, cl := range claimedLocations(t, topo, route, orphan) {
			report := testReport(150)
			report.Location = cl.loc

			// Rejected: the whole subtree, each node once.
			seen := make(map[packet.NodeID]int)
			reg := obs.New()
			r := NewTopologyResolver(testKS, topo)
			r.Instrument(reg)
			r.anonID = func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
				seen[id]++
				return mac.AnonID(k, report, id)
			}
			r.Resolve(report, [packet.AnonIDLen]byte{}, rt.id, rt.havePrev, 0, func(packet.NodeID) bool { return false })
			if probes := reg.Counter("sink.resolver.probes").Value(); probes != uint64(len(sub)) || len(seen) != len(sub) {
				t.Errorf("root %d, L %s: rejected mark made %d probes over %d nodes, subtree has %d", rt.id, cl.name, probes, len(seen), len(sub))
			}
			for _, v := range sub {
				if seen[v] != 1 {
					t.Errorf("root %d, L %s: subtree node %d probed %d times", rt.id, cl.name, v, seen[v])
				}
			}

			// Accepted at its true node: within one route walk of the BFS.
			bound := routeLen(cl.loc, rt.id)
			for _, target := range sub {
				anon := realAnonID(target, report)
				accept := func(id packet.NodeID) bool { return id == target }
				reg := obs.New()
				r := NewTopologyResolver(testKS, topo)
				r.Instrument(reg)
				got := packet.SinkID
				r.Resolve(report, anon, rt.id, rt.havePrev, 0, func(id packet.NodeID) bool {
					if accept(id) {
						got = id
						return true
					}
					return false
				})
				ref := &bfsOnlyResolver{epochs: set}
				ref.Resolve(report, anon, rt.id, rt.havePrev, 0, accept)
				probes := reg.Counter("sink.resolver.probes").Value()
				if got != target || probes > uint64(ref.visits+bound) {
					t.Errorf("root %d, L %s, target %d: accepted %d after %d probes, BFS-only %d plus route %d", rt.id, cl.name, target, got, probes, ref.visits, bound)
				}
			}
		}
	}
}

// TestTopologyResolveZeroAlloc pins the // pnmlint:noalloc contract on
// TopologyResolver.Resolve dynamically: once both epochs' trees are
// built, the schedules cached and the level and route buffers grown,
// resolving a hinted and an unhinted mark under either epoch allocates
// nothing — with the report claiming the true source (the route pass
// runs through the hint), a node whose route misses the hint in one
// epoch (node 3 climbs 3->1->0 in the base tree) and a node orphaned in
// the repaired one (node 1), for a caller that rejects every match and
// for one that accepts the first.
func TestTopologyResolveZeroAlloc(t *testing.T) {
	base, repaired, msg := epochChurnFixture(t)
	set := topology.NewEpochSet(base)
	ep := set.Advance(repaired)
	r := NewTopologyResolverEpochs(testKS, set)
	r.Instrument(obs.New())
	reject := func(packet.NodeID) bool { return false }
	accept := func(packet.NodeID) bool { return true }
	reports := []packet.Report{msg.Report, msg.Report, msg.Report}
	reports[0].Location, reports[1].Location, reports[2].Location = 5, 3, 1
	resolveAll := func() {
		for _, report := range reports {
			for _, epoch := range []topology.EpochVersion{0, ep.Version} {
				for _, yield := range []func(packet.NodeID) bool{reject, accept} {
					r.Resolve(report, msg.Marks[1].AnonID, 0, false, epoch, yield)
					r.Resolve(report, msg.Marks[0].AnonID, 2, true, epoch, yield)
				}
			}
		}
	}
	resolveAll() // warm-up
	if n := testing.AllocsPerRun(100, resolveAll); n != 0 {
		t.Fatalf("Resolve across two epochs allocates %.1f per call set, want 0", n)
	}
}
