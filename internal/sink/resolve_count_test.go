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
// early accept and for a full sweep that rejects every match.
func TestTopologyResolveCountsEveryProbe(t *testing.T) {
	topo := equivGrid(t)
	report := testReport(9)
	target := nodeAtDepth(t, topo, 3)
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
				t.Errorf("seam=%v accept=%v: probes = %d, anonymous-ID computations = %d", seam, accept, probes, calls)
			}
			if cand := reg.Counter("sink.resolver.candidates").Value(); cand != uint64(yields) {
				t.Errorf("seam=%v accept=%v: candidates = %d, yields = %d", seam, accept, cand, yields)
			}
			full := probes == uint64(topo.NumNodes())
			if full == accept {
				t.Errorf("seam=%v accept=%v: %d probes over %d nodes", seam, accept, probes, topo.NumNodes())
			}
		}
	}

	// A second Resolve on a warm resolver counts only hits.
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

// TestTopologyResolveZeroAlloc pins the // pnmlint:noalloc contract on
// TopologyResolver.Resolve dynamically: once both epochs' trees are
// built, the schedules cached and the BFS buffers grown, resolving a
// hinted and an unhinted mark under either epoch allocates nothing.
func TestTopologyResolveZeroAlloc(t *testing.T) {
	base, repaired, msg := epochChurnFixture(t)
	set := topology.NewEpochSet(base)
	ep := set.Advance(repaired)
	r := NewTopologyResolverEpochs(testKS, set)
	r.Instrument(obs.New())
	reject := func(packet.NodeID) bool { return false }
	resolveBoth := func() {
		for _, epoch := range []topology.EpochVersion{0, ep.Version} {
			r.Resolve(msg.Report, msg.Marks[1].AnonID, 0, false, epoch, reject)
			r.Resolve(msg.Report, msg.Marks[0].AnonID, 2, true, epoch, reject)
		}
	}
	resolveBoth() // warm-up
	if n := testing.AllocsPerRun(100, resolveBoth); n != 0 {
		t.Fatalf("Resolve across two epochs allocates %.1f per call set, want 0", n)
	}
}
