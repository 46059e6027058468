package experiment

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// benchStream generates a sink bench workload batch by batch, so a
// 1M-source sweep point never materializes 1M packets at once.
type benchStream interface {
	// reset rewinds to the first packet of the stream a sweep point of
	// sources sources delivers, and returns the stream's length. Every
	// reset replays a byte-identical stream, so every row at a sweep
	// point folds the same packets.
	reset(sources int) int
	// batch fills buf with the next len(buf) packets of the stream. It
	// may overwrite the previous batch's messages in place.
	batch(buf []packet.Message)
}

// newBenchStream builds the configured workload on topo and returns it
// with the PNM scheme its packets are marked under.
func newBenchStream(cfg SinkBenchConfig, topo *topology.Network, keys *mac.KeyStore) (benchStream, marking.Scheme, error) {
	// Sources report from the deepest nodes; depth spread keeps the
	// topology resolver's searches non-trivial. Sort is stable over the
	// deterministic Nodes() order.
	byDepth := append([]packet.NodeID(nil), topo.Nodes()...)
	sort.SliceStable(byDepth, func(i, j int) bool {
		return topo.Depth(byDepth[i]) > topo.Depth(byDepth[j])
	})
	hosts := cfg.Hosts
	if cfg.Stream == StreamInterleaved {
		hosts = slices.Max(cfg.SourceSweep) // every interleaved source is a host
	}
	if hosts < 1 || len(byDepth) < hosts {
		return nil, nil, fmt.Errorf("experiment: %d nodes cannot host %d sources", len(byDepth), hosts)
	}
	maxHops := topo.Depth(byDepth[0]) - 1
	if maxHops < 1 {
		return nil, nil, fmt.Errorf("experiment: degenerate topology at size %d", cfg.Nodes)
	}
	scheme := marking.PNM{P: analytic.ProbabilityForMarks(maxHops, 3)}

	switch cfg.Stream {
	case StreamInterleaved:
		if cfg.Reports < 1 || cfg.Repeats < 1 {
			return nil, nil, fmt.Errorf("experiment: reports and repeats must be positive")
		}
		return &interleavedStream{
			scheme: scheme, keys: keys, topo: topo, byDepth: byDepth,
			reports: cfg.Reports, repeats: cfg.Repeats, seed: cfg.Seed,
		}, scheme, nil
	case StreamKeyed:
		paths := make([][]packet.NodeID, hosts)
		for i, h := range byDepth[:hosts] {
			paths[i] = topo.Forwarders(h)
		}
		return &keyedGen{
			scheme: scheme, hasher: keys.Hasher(), seed: cfg.Seed,
			hosts: byDepth[:hosts], paths: paths,
		}, scheme, nil
	}
	return nil, nil, fmt.Errorf("experiment: unknown bench stream %q", cfg.Stream)
}

// interleavedStream is the concurrent-reporting workload the LRU table
// cache exists for: the deepest sources nodes each emit reports distinct
// reports, every report's packet is retransmitted repeats times, and
// deliveries interleave round-robin across sources. Consecutive packets
// almost always carry different reports, so a single-entry cache
// rebuilds the anonymous-ID table on nearly every packet.
type interleavedStream struct {
	scheme  marking.Scheme
	keys    *mac.KeyStore
	topo    *topology.Network
	byDepth []packet.NodeID
	reports int
	repeats int
	seed    int64
	msgs    []packet.Message
	next    int
}

// reset pre-marks every (source, report) packet with the marking RNG
// reseeded and lays out the interleaved delivery order.
func (s *interleavedStream) reset(sources int) int {
	rng := rand.New(rand.NewSource(s.seed))
	// marked[si][r] is source si's packet for its r-th report.
	marked := make([][]packet.Message, sources)
	for si, src := range s.byDepth[:sources] {
		marked[si] = make([]packet.Message, s.reports)
		for r := range marked[si] {
			msg := packet.Message{Report: packet.Report{
				Event: uint32(src), Location: uint32(si), Seq: uint32(r + 1),
			}}
			for _, hop := range s.topo.Forwarders(src) {
				msg = s.scheme.Mark(hop, s.keys.Key(hop), msg, rng)
			}
			marked[si][r] = msg
		}
	}
	// Within one repeat sweep every source delivers once, so a capacity-1
	// table cache misses on each packet while any cache holding the
	// sources live reports hits after the first sweep.
	s.msgs = s.msgs[:0]
	for r := 0; r < s.reports; r++ {
		for rep := 0; rep < s.repeats; rep++ {
			for si := range marked {
				s.msgs = append(s.msgs, marked[si][r])
			}
		}
	}
	s.next = 0
	return len(s.msgs)
}

func (s *interleavedStream) batch(buf []packet.Message) {
	s.next += copy(buf, s.msgs[s.next:])
}

// keyedGen is the keyed-source workload: source i hosts on the
// (i mod hosts)-th deepest node and emits one packet with a
// stream-unique Event, marked along the host's real forwarding path.
// Every source is a distinct report stream, so a cluster's partition
// spreads the stream across all shards.
type keyedGen struct {
	scheme marking.PNM
	hasher *mac.Hasher
	macBuf []byte
	seed   int64
	hosts  []packet.NodeID
	paths  [][]packet.NodeID
	rng    *rand.Rand
	next   int
}

// reset reseeds the marking RNG and rewinds to source 0; one packet per
// source.
func (g *keyedGen) reset(sources int) int {
	g.rng = rand.New(rand.NewSource(g.seed))
	g.next = 0
	return sources
}

// batch overwrites buf in place: each slot's mark storage is reused, so
// steady-state generation allocates nothing. Marking runs on cached key
// schedules through MarkSched, which is byte-identical to Scheme.Mark.
func (g *keyedGen) batch(buf []packet.Message) {
	for k := range buf {
		i := g.next
		g.next++
		h := i % len(g.hosts)
		m := &buf[k]
		m.Report = packet.Report{
			Event: uint32(i + 1), Location: uint32(g.hosts[h]), Seq: 1,
		}
		m.Marks = m.Marks[:0]
		for _, hop := range g.paths[h] {
			g.macBuf = g.scheme.MarkSched(g.hasher.Schedule(hop), g.macBuf, m, hop, g.rng)
		}
	}
}
