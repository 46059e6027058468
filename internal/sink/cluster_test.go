package sink

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// clusterScenario builds a random geometric deployment with several
// interleaved mole sources and returns the marked stream a sink would
// receive, plus the verifier factory the unsharded tracker and every
// cluster shard share.
func clusterScenario(t testing.TB, seed int64, nodes, sources, packets int) (*topology.Network, func() Verifier, []packet.Message) {
	t.Helper()
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: nodes, Side: 5, RadioRange: 1.6, Seed: seed, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	scheme := marking.PNM{P: 0.5}
	rng := rand.New(rand.NewSource(seed))

	// The deepest `sources` nodes inject, each its own report stream; the
	// partition routes each stream to one shard.
	ids := topo.Nodes()
	srcs := make([]packet.NodeID, 0, sources)
	for _, id := range ids {
		if topo.Depth(id) >= 2 {
			srcs = append(srcs, id)
		}
		if len(srcs) == sources {
			break
		}
	}
	if len(srcs) == 0 {
		srcs = append(srcs, topo.DeepestNode())
	}

	env := &mole.Env{Scheme: scheme}
	stream := make([]packet.Message, 0, packets)
	for p := 0; p < packets; p++ {
		origin := srcs[p%len(srcs)]
		src := &mole.Source{
			ID:       origin,
			Base:     packet.Report{Event: uint32(p % len(srcs)), Location: uint32(origin)},
			Behavior: mole.MarkNever,
		}
		msg := src.Next(env, rng)
		for _, hop := range topo.Forwarders(origin) {
			msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
		}
		stream = append(stream, msg)
	}
	factory := func() Verifier {
		v, err := NewVerifier(scheme, testKS, topo.NumNodes(), NewTopologyResolver(testKS, topo))
		if err != nil {
			t.Fatalf("verifier: %v", err)
		}
		return v
	}
	return topo, factory, stream
}

// visibleCounters extracts the verdict-visible counter set the shard
// invariance contract covers. Cache-locality metrics (resolver probes per
// shard, schedule misses) legitimately vary with the partition and are
// excluded, exactly as in the pipelined round's contract.
func visibleCounters(reg *obs.Registry) map[string]uint64 {
	return map[string]uint64{
		"tracker.packets": reg.Counter("sink.tracker.packets").Value(),
		"chains_folded":   reg.Counter("sink.tracker.chains_folded").Value(),
		"verify.packets":  reg.Counter("sink.verify.packets").Value(),
		"marks_verified":  reg.Counter("sink.verify.marks_verified").Value(),
		"stops":           reg.Counter("sink.verify.stops").Value(),
	}
}

// instrumentedFactory wraps factory so each shard's verifier chain binds
// into reg, the way transport's pipeline factory does.
func instrumentedFactory(factory func() Verifier, reg *obs.Registry) func() Verifier {
	return func() Verifier {
		v := factory()
		if in, ok := v.(Instrumentable); ok {
			in.Instrument(reg)
		}
		return v
	}
}

// TestClusterShardInvarianceProperty is the tentpole contract: over random
// topologies and multi-source streams, the cluster's verdict, per-packet
// Results and verdict-visible obs counters are byte-identical at 1, 2 and
// 8 shards, and identical to an unsharded Tracker fed the same stream.
func TestClusterShardInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64, rawNodes, rawSources uint8) bool {
		nodes := int(rawNodes%40) + 12
		sources := int(rawSources%6) + 1
		const packets = 90
		topo, factory, stream := clusterScenario(t, seed, nodes, sources, packets)

		// Unsharded baseline.
		baseReg := obs.New()
		tracker := NewTracker(instrumentedFactory(factory, baseReg)(), topo)
		tracker.Instrument(baseReg)
		baseResults := make([]Result, 0, len(stream))
		for _, msg := range stream {
			res := tracker.Observe(msg)
			baseResults = append(baseResults, Result{
				Stopped: res.Stopped,
				Chain:   append([]packet.NodeID(nil), res.Chain...),
			})
		}
		baseVerdict := tracker.Verdict()
		baseCounters := visibleCounters(baseReg)

		for _, shards := range []int{1, 2, 8} {
			reg := obs.New()
			c := NewCluster(shards, 1, instrumentedFactory(factory, reg), topo, reg)
			for lo := 0; lo < len(stream); lo += 16 {
				hi := min(lo+16, len(stream))
				res, dropped := c.Observe(stream[lo:hi], nil)
				if dropped != 0 {
					t.Errorf("shards=%d: dropped %d with no crash", shards, dropped)
				}
				for j, r := range res {
					want := baseResults[lo+j]
					if r.Stopped != want.Stopped || !reflect.DeepEqual(r.Chain, want.Chain) {
						t.Errorf("shards=%d packet %d: result %+v, want %+v", shards, lo+j, r, want)
						c.Close()
						return false
					}
				}
			}
			if v := c.Verdict(); !reflect.DeepEqual(v, baseVerdict) {
				t.Errorf("shards=%d: verdict %+v, want %+v", shards, v, baseVerdict)
				c.Close()
				return false
			}
			if got := c.Packets(); got != tracker.Packets() {
				t.Errorf("shards=%d: packets %d, want %d", shards, got, tracker.Packets())
			}
			if got := visibleCounters(reg); !reflect.DeepEqual(got, baseCounters) {
				t.Errorf("shards=%d: counters %v, want %v", shards, got, baseCounters)
				c.Close()
				return false
			}
			c.Close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterShardCrashRestoreRoundTrip crashes one shard mid-stream,
// restores it from its own PNM2 blob with zero packets lost in between,
// and demands the final verdict still matches the unsharded baseline —
// the shard-granular failure domain the per-shard checkpoints exist for.
func TestClusterShardCrashRestoreRoundTrip(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 11, 36, 4, 200)

	tracker := NewTracker(factory(), topo)
	for _, msg := range stream {
		tracker.Observe(msg)
	}
	want := tracker.Verdict()

	const shards = 4
	reg := obs.New()
	c := NewCluster(shards, 1, factory, topo, reg)
	defer c.Close()
	half := len(stream) / 2
	if _, dropped := c.Observe(stream[:half], nil); dropped != 0 {
		t.Fatalf("dropped %d before crash", dropped)
	}

	const victim = 2
	if err := c.CrashShard(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := c.CrashShard(victim); err == nil {
		t.Fatal("double crash not rejected")
	}
	if c.CrashShard(-1) == nil || c.CrashShard(shards) == nil || c.RestoreShard(-1) == nil {
		t.Fatal("out-of-range shard index not rejected")
	}
	// A merge with a crashed shard must not panic: the victim contributes
	// its at-crash PNM2 evidence.
	_ = c.Verdict()

	if err := c.RestoreShard(victim); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, dropped := c.Observe(stream[half:], nil); dropped != 0 {
		t.Fatalf("dropped %d after restore", dropped)
	}
	if got := c.Verdict(); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict after crash/restore = %+v, want %+v", got, want)
	}
	if got := c.Packets(); got != len(stream) {
		t.Fatalf("packets after crash/restore = %d, want %d", got, len(stream))
	}
	if got := reg.Counter("sink.cluster.shard_crashes").Value(); got != 1 {
		t.Fatalf("shard_crashes = %d, want 1", got)
	}
	if got := reg.Counter("sink.cluster.shard_restores").Value(); got != 1 {
		t.Fatalf("shard_restores = %d, want 1", got)
	}
}

// TestClusterDropsWhileShardDown pins the shard-down semantics: packets
// partitioned to a crashed shard drop (and are counted), every other
// shard keeps folding, and the lost evidence is exactly the down shard's
// share — the transport ledger's shard-granular analogue. Packets, which
// sums per-shard counts without merging, must include what the down
// shard had folded before it crashed.
func TestClusterDropsWhileShardDown(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 23, 30, 5, 120)
	const shards = 4
	reg := obs.New()
	c := NewCluster(shards, 1, factory, topo, reg)
	defer c.Close()

	const victim = 1
	half := len(stream) / 2
	before, share := 0, 0
	for i, msg := range stream {
		if ShardOf(msg.Report, shards) != victim {
			continue
		}
		if i < half {
			before++
		} else {
			share++
		}
	}
	if before == 0 || share == 0 || share == len(stream)-half {
		t.Fatalf("degenerate partition: victim owns %d before and %d after the crash", before, share)
	}

	if _, dropped := c.Observe(stream[:half], nil); dropped != 0 {
		t.Fatalf("dropped %d before the crash", dropped)
	}
	if err := c.CrashShard(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if got := c.Packets(); got != half {
		t.Fatalf("packets right after the crash = %d, want %d", got, half)
	}
	_, dropped := c.Observe(stream[half:], nil)
	if dropped != share {
		t.Fatalf("dropped %d, want the victim's share %d", dropped, share)
	}
	if got := reg.Counter("sink.cluster.dropped_while_down").Value(); got != uint64(share) {
		t.Fatalf("dropped_while_down = %d, want %d", got, share)
	}
	if got := c.Packets(); got != len(stream)-share {
		t.Fatalf("packets while shard %d is down = %d, want %d", victim, got, len(stream)-share)
	}
	if err := c.RestoreShard(victim); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := c.Packets(); got != len(stream)-share {
		t.Fatalf("packets after restore = %d, want %d", got, len(stream)-share)
	}
}

// TestClusterWholeSinkCrashRestore crashes and restores the whole sink
// mid-stream at 1 and 2 shards. Packets observed while it is down are
// dropped; the verdict, Candidates and Packets — while down and after the
// restore — must equal those of an uninterrupted serial Tracker fed
// exactly the packets that were delivered.
func TestClusterWholeSinkCrashRestore(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 41, 32, 4, 240)
	third := len(stream) / 3
	for _, shards := range []int{1, 2} {
		reg := obs.New()
		c := NewCluster(shards, 1, factory, topo, reg)
		ref := NewTracker(factory(), topo)
		deliver := func(batch []packet.Message) {
			t.Helper()
			if _, dropped := c.Observe(batch, nil); dropped != 0 {
				t.Fatalf("shards=%d: dropped %d while up", shards, dropped)
			}
			for _, msg := range batch {
				ref.Observe(msg)
			}
		}
		same := func(when string) {
			t.Helper()
			if got, want := c.Verdict(), ref.Verdict(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d %s: verdict %+v, want %+v", shards, when, got, want)
			}
			if got, want := c.Candidates(), ref.Candidates(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d %s: candidates %v, want %v", shards, when, got, want)
			}
			if got, want := c.Packets(), ref.Packets(); got != want {
				t.Fatalf("shards=%d %s: packets %d, want %d", shards, when, got, want)
			}
		}

		deliver(stream[:third])
		if err := c.Crash(); err != nil {
			t.Fatalf("shards=%d: crash: %v", shards, err)
		}
		if err := c.Crash(); err == nil {
			t.Fatalf("shards=%d: second crash not rejected", shards)
		}
		if _, dropped := c.Observe(stream[third:2*third], nil); dropped != third {
			t.Fatalf("shards=%d: dropped %d while down, want %d", shards, dropped, third)
		}
		same("while down")
		if err := c.Restore(); err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		if err := c.Restore(); err == nil {
			t.Fatalf("shards=%d: restore of a live sink not rejected", shards)
		}
		same("after restore")
		deliver(stream[2*third:])
		same("at the end")
		if got := reg.Counter("sink.cluster.shard_crashes").Value(); got != uint64(shards) {
			t.Fatalf("shards=%d: shard_crashes = %d, want one per shard", shards, got)
		}
		c.Close()
	}
}

// TestClusterReadableAfterClose pins that Close seals the cluster's
// state: Verdict, Candidates and Packets after Close equal their values
// before it, at every round shape, and crash/restore on a closed cluster
// are rejected instead of reaching the stopped workers.
func TestClusterReadableAfterClose(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 53, 30, 4, 160)
	for _, shape := range []struct{ shards, workers int }{{1, 1}, {1, 4}, {2, 1}, {4, 1}} {
		c := NewCluster(shape.shards, shape.workers, factory, topo, nil)
		c.Observe(stream, nil)
		verdict, candidates, packets := c.Verdict(), c.Candidates(), c.Packets()
		c.Close()
		c.Close()
		if got := c.Verdict(); !reflect.DeepEqual(got, verdict) {
			t.Fatalf("%+v: verdict after Close %+v, want %+v", shape, got, verdict)
		}
		if got := c.Candidates(); !reflect.DeepEqual(got, candidates) {
			t.Fatalf("%+v: candidates after Close %v, want %v", shape, got, candidates)
		}
		if got := c.Packets(); got != packets {
			t.Fatalf("%+v: packets after Close %d, want %d", shape, got, packets)
		}
		if c.Crash() == nil || c.Restore() == nil || c.CrashShard(0) == nil || c.RestoreShard(0) == nil {
			t.Fatalf("%+v: crash or restore accepted on a closed cluster", shape)
		}
	}
}

// TestClusterCheckpointRestoreCluster round-trips the whole cluster
// through its per-shard PNM2 blobs and demands verdict and packet-count
// equality — the transport chaos path's building block.
func TestClusterCheckpointRestoreCluster(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 31, 28, 3, 150)
	const shards = 8
	c := NewCluster(shards, 1, factory, topo, nil)
	c.Observe(stream, nil)
	want := c.Verdict()
	wantPackets := c.Packets()
	blobs := c.Checkpoint()
	c.Close()
	if len(blobs) != shards {
		t.Fatalf("checkpoint produced %d blobs, want %d", len(blobs), shards)
	}

	restored, err := RestoreCluster(blobs, factory, topo, nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Close()
	if got := restored.Verdict(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored verdict = %+v, want %+v", got, want)
	}
	if got := restored.Packets(); got != wantPackets {
		t.Fatalf("restored packets = %d, want %d", got, wantPackets)
	}
}

// TestShardOfDeterministic pins the partition function: pure in the
// source-identity fields, independent of Seq, full range coverage.
func TestShardOfDeterministic(t *testing.T) {
	r := packet.Report{Event: 7, Location: 9, Seq: 1}
	for shards := 1; shards <= 16; shards++ {
		a := ShardOf(r, shards)
		if b := ShardOf(r, shards); b != a {
			t.Fatalf("ShardOf not deterministic at %d shards: %d vs %d", shards, a, b)
		}
		if a < 0 || a >= shards {
			t.Fatalf("ShardOf out of range at %d shards: %d", shards, a)
		}
		retrans := r
		retrans.Seq = 999
		retrans.Timestamp = 123
		if b := ShardOf(retrans, shards); b != a {
			t.Fatalf("retransmission changed shard at %d shards: %d vs %d", shards, a, b)
		}
	}
	seen := make(map[int]bool)
	for e := uint32(0); e < 64; e++ {
		seen[ShardOf(packet.Report{Event: e, Location: e * 31}, 8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("partition covers %d of 8 shards over 64 streams", len(seen))
	}
}

// TestOrderMergeCommutes pins Merge's algebra directly: merging any
// split of a chain set in any order yields the same reachability
// relation as folding the chains into one matrix.
func TestOrderMergeCommutes(t *testing.T) {
	chains := [][]packet.NodeID{
		{5, 4, 3}, {3, 2, 1}, {9, 4}, {7, 6, 2}, {1},
	}
	whole := NewOrder()
	for _, ch := range chains {
		whole.AddChain(ch)
	}
	for split := 1; split < len(chains); split++ {
		a, b := NewOrder(), NewOrder()
		for i, ch := range chains {
			if i < split {
				a.AddChain(ch)
			} else {
				b.AddChain(ch)
			}
		}
		for _, merged := range []*Order{mergePair(a, b), mergePair(b, a)} {
			for _, u := range whole.Seen() {
				for _, v := range whole.Seen() {
					if whole.Upstream(u, v) != merged.Upstream(u, v) {
						t.Fatalf("split %d: merged relation differs at %v->%v", split, u, v)
					}
				}
			}
			if !reflect.DeepEqual(merged.Minimals(), whole.Minimals()) {
				t.Fatalf("split %d: minimals %v, want %v", split, merged.Minimals(), whole.Minimals())
			}
		}
	}
}

func mergePair(a, b *Order) *Order {
	m := NewOrder()
	m.Merge(a)
	m.Merge(b)
	return m
}
