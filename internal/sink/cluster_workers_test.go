package sink

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// workersTraffic marks randomized interleaved multi-source traffic over
// topo: each source emits several distinct reports, retransmits each a
// few times, and the deliveries shuffle together — the regime the
// resolver cache and the pipelined round are built for. A fraction of
// packets get one mark's MAC corrupted so Stopped results appear too.
func workersTraffic(topo *topology.Network, rng *rand.Rand, sources, reports, repeats int) []packet.Message {
	scheme := marking.PNM{P: 0.4}
	nodes := topo.Nodes()
	var stream []packet.Message
	for s := 0; s < sources; s++ {
		src := nodes[rng.Intn(len(nodes))]
		for r := 0; r < reports; r++ {
			msg := packet.Message{Report: packet.Report{
				Event: rng.Uint32(), Location: uint32(src), Seq: uint32(r + 1),
			}}
			for _, hop := range topo.Forwarders(src) {
				msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
			}
			for rep := 0; rep < repeats; rep++ {
				out := msg.Clone()
				if len(out.Marks) > 0 && rng.Intn(4) == 0 {
					out.Marks[rng.Intn(len(out.Marks))].MAC[0] ^= 0x80
				}
				stream = append(stream, out)
			}
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return stream
}

// runWorkers pushes stream through a fresh one-shard cluster with the
// given worker count in batches of batchLen, collecting a deep copy of
// every Result, the final verdict, and the verdict-visible obs counters.
func runWorkers(t *testing.T, topo *topology.Network, stream []packet.Message, workers, batchLen int) ([]Result, Verdict, map[string]uint64) {
	t.Helper()
	reg := obs.New()
	factory := func() Verifier {
		resolver := NewExhaustiveResolver(testKS, topo.Nodes())
		v, err := NewVerifier(marking.PNM{P: 0.4}, testKS, topo.NumNodes(), resolver)
		if err != nil {
			panic(err)
		}
		return v
	}
	c := NewCluster(1, workers, factory, topo, reg)
	defer c.Close()

	var all []Result
	for lo := 0; lo < len(stream); lo += batchLen {
		hi := min(lo+batchLen, len(stream))
		results, dropped := c.Observe(stream[lo:hi], nil)
		if dropped != 0 {
			t.Fatalf("workers %d: dropped %d with no crash", workers, dropped)
		}
		for _, res := range results {
			cp := Result{Stopped: res.Stopped, Chain: append([]packet.NodeID(nil), res.Chain...)}
			all = append(all, cp)
		}
	}
	visible := map[string]uint64{
		"sink.verify.packets":        reg.Counter("sink.verify.packets").Value(),
		"sink.verify.marks_verified": reg.Counter("sink.verify.marks_verified").Value(),
		"sink.verify.stops":          reg.Counter("sink.verify.stops").Value(),
		"sink.tracker.packets":       reg.Counter("sink.tracker.packets").Value(),
		"sink.tracker.chains_folded": reg.Counter("sink.tracker.chains_folded").Value(),
	}
	return all, c.Verdict(), visible
}

// TestClusterWorkersDeterministic is the pipelined round's determinism
// property test: for randomized interleaved multi-source traffic, a
// one-shard cluster at 1, 2, 4 and 8 workers must produce identical
// per-packet Results, identical verdicts, and identical verdict-visible
// obs counters — and all must match the serial tracker.
func TestClusterWorkersDeterministic(t *testing.T) {
	topo, err := topology.NewGrid(topology.GridConfig{Width: 6, Height: 6, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, rawBatch uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := workersTraffic(topo, rng, 3, 2, 3)
		batchLen := int(rawBatch%16) + 1

		// Serial reference: one tracker observing the stream in order.
		refV, err := NewVerifier(marking.PNM{P: 0.4}, testKS, topo.NumNodes(), NewExhaustiveResolver(testKS, topo.Nodes()))
		if err != nil {
			t.Error(err)
			return false
		}
		ref := NewTracker(refV, topo)
		var refResults []Result
		for _, m := range stream {
			res := ref.Observe(m)
			refResults = append(refResults, Result{Stopped: res.Stopped, Chain: append([]packet.NodeID(nil), res.Chain...)})
		}
		refVerdict := ref.Verdict()

		var first map[string]uint64
		for _, workers := range []int{1, 2, 4, 8} {
			results, verdict, visible := runWorkers(t, topo, stream, workers, batchLen)
			if !reflect.DeepEqual(results, refResults) {
				t.Errorf("seed %d, workers %d: results diverged from serial", seed, workers)
				return false
			}
			if !reflect.DeepEqual(verdict, refVerdict) {
				t.Errorf("seed %d, workers %d: verdict %+v, serial %+v", seed, workers, verdict, refVerdict)
				return false
			}
			if first == nil {
				first = visible
			} else if !reflect.DeepEqual(visible, first) {
				t.Errorf("seed %d, workers %d: visible counters %v, want %v", seed, workers, visible, first)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterWorkersSharedKeyStoreRace exercises the one piece of
// genuinely shared state — the KeyStore — under worker concurrency, with
// schedules being built in every worker at once. Run under -race (the CI
// race list includes this package) it proves the store's synchronization
// is the only synchronization the pipelined round needs.
func TestClusterWorkersSharedKeyStoreRace(t *testing.T) {
	topo, err := topology.NewGrid(topology.GridConfig{Width: 6, Height: 6, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh KeyStore so every key derivation and schedule build happens
	// during the concurrent phase.
	keys := mac.NewKeyStore([]byte(t.Name()))
	rng := rand.New(rand.NewSource(77))
	scheme := marking.PNM{P: 0.4}
	nodes := topo.Nodes()
	var stream []packet.Message
	for s := 0; s < 6; s++ {
		src := nodes[rng.Intn(len(nodes))]
		msg := packet.Message{Report: packet.Report{Event: rng.Uint32(), Seq: uint32(s)}}
		for _, hop := range topo.Forwarders(src) {
			msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
		}
		for rep := 0; rep < 8; rep++ {
			stream = append(stream, msg)
		}
	}

	// Two 8-worker clusters sharing one KeyStore, run concurrently from
	// two goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			factory := func() Verifier {
				v, err := NewVerifier(scheme, keys, topo.NumNodes(), NewExhaustiveResolver(keys, topo.Nodes()))
				if err != nil {
					panic(err)
				}
				return v
			}
			c := NewCluster(1, 8, factory, topo, nil)
			defer c.Close()
			for i := 0; i < 4; i++ {
				c.Observe(stream, nil)
			}
			if got := c.Packets(); got != 4*len(stream) {
				panic(fmt.Sprintf("cluster folded %d packets, want %d", got, 4*len(stream)))
			}
		}()
	}
	wg.Wait()
}

// TestClusterVerdictAllocs pins the verdict fast path: a one-shard
// cluster answers on the shard's own worker, paying Tracker.Verdict's
// allocations plus the pool round's one — never the merge.
func TestClusterVerdictAllocs(t *testing.T) {
	topo, factory, stream := clusterScenario(t, 61, 40, 3, 400)
	c := NewCluster(1, 1, factory, topo, nil)
	defer c.Close()
	c.Observe(stream, nil)
	ref := NewTracker(nil, topo)
	ref.order = c.merged().order
	tracker := testing.AllocsPerRun(100, func() { ref.Verdict() })
	if allocs := testing.AllocsPerRun(100, func() { c.Verdict() }); allocs > tracker+2 || allocs > 8 {
		t.Fatalf("one-shard Cluster.Verdict allocates %.0f times, want <= 8 (Tracker.Verdict: %.0f)", allocs, tracker)
	}
}

// benchVerdict keeps the benchmarked reads observable to the compiler.
var benchVerdict Verdict

// BenchmarkClusterVerdict times Verdict on a settled cluster. At one
// shard the fast path answers on the shard's own worker; "merge" times
// the same state read through a full merge, the path every verdict took
// before the fast path; at four shards (evidence on two of them) the
// live orders merge on their owning workers.
func BenchmarkClusterVerdict(b *testing.B) {
	topo, factory, stream := clusterScenario(b, 61, 400, 8, 4000)
	for _, bc := range []struct {
		name   string
		shards int
		read   func(c *Cluster) Verdict
	}{
		{"shards=1", 1, (*Cluster).Verdict},
		{"shards=1/merge", 1, func(c *Cluster) Verdict { return c.merged().Verdict() }},
		{"shards=4", 4, (*Cluster).Verdict},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewCluster(bc.shards, 1, factory, topo, nil)
			defer c.Close()
			for lo := 0; lo < len(stream); lo += 256 {
				c.Observe(stream[lo:min(lo+256, len(stream))], nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchVerdict = bc.read(c)
			}
		})
	}
}
