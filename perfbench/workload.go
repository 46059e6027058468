package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Each workload fixes its field (the layout seed below) and lets --seed
// drive everything that flows over it: the key material, the marking
// draws, the mole choice and the rewires. The cost of resolving a mark
// is set by the depth structure of the field, so a fixed field keeps
// the run-to-run spread down to what the traffic and the machine add,
// while every seed still sends different bytes.
const (
	// keyedDeepLayoutSeed is the 2048-node field of the scale benchmark.
	keyedDeepLayoutSeed = 17
	// multiChurnLayoutSeed picks the 512-node churn field.
	multiChurnLayoutSeed = 23
)

const (
	// shards is the server's shard count on every workload: the sharded
	// sink on the 2 CPUs the benchmark is sized for.
	shards = 2
	// capPPS sizes the recorded stream: capPPS × seconds packets, several
	// times what the server folds in that time.
	capPPS = 30000
)

// config is one workload's shape. The full-size values are what
// BENCHMARK.json names; the self-test shrinks them.
type config struct {
	Name string `json:"name"`
	// Nodes is the field size; the side scales with the node count, as
	// the scale benchmark has it.
	Nodes      int   `json:"nodes"`
	LayoutSeed int64 `json:"layout_seed"`
	// Hosts > 0 cycles keyed sources over the Hosts deepest nodes; 0
	// spreads them over every node.
	Hosts int `json:"hosts,omitempty"`
	// MolePairs > 0 makes every fourth packet come from one of that many
	// source moles whose colluding forwarder tampers with the marks.
	MolePairs int `json:"mole_pairs,omitempty"`
	// Epochs is how many depth-preserving rewires the run goes through.
	Epochs int `json:"epochs,omitempty"`
	// PollEvery > 0 waits for each batch of that many packets to be
	// folded and then polls Server.Verdict; 0 sends as fast as the
	// connection admits.
	PollEvery int `json:"poll_every,omitempty"`
	// ChurnEvery is how many packets each epoch lasts before the next
	// rewire: the run goes through its Epochs rewires in its first
	// Epochs × ChurnEvery packets, whatever rate the server folds at.
	ChurnEvery int `json:"churn_every,omitempty"`
	// LocalizeReplicas and LocalizePackets size the localization count:
	// that many independently drawn lone-mole streams, each folded and
	// polled for LocalizePackets packets.
	LocalizeReplicas int `json:"localize_replicas"`
	LocalizePackets  int `json:"localize_packets"`
}

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]config{
	// Resolution does almost all the work: deep hosts, about 3 anonymous
	// marks per packet, honest forwarding, never polled.
	"keyed-deep": {
		Name: "keyed-deep", Nodes: 2048, LayoutSeed: keyedDeepLayoutSeed, Hosts: 64,
		LocalizeReplicas: 192, LocalizePackets: 300,
	},
	// Order fold, verdict and the cross-shard merge do the work, and many
	// probes fail: tampering colluders, route churn, a poll every batch.
	"multi-churn": {
		Name: "multi-churn", Nodes: 512, LayoutSeed: multiChurnLayoutSeed,
		MolePairs: 32, Epochs: 8, PollEvery: 64, ChurnEvery: 4096,
		LocalizeReplicas: 320, LocalizePackets: 400,
	},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"keyed-deep", "multi-churn"}

// molePair is a source mole and the colluding forwarder that tampers
// with its packets.
type molePair struct {
	src, colluder packet.NodeID
	// swap selects identity swapping (both ends mark as either
	// identity); otherwise the colluder alters every upstream mark.
	swap bool
}

// scenario is the deployment both ends agree on: everything the server
// is built from, plus what the sender needs to mark traffic for it.
type scenario struct {
	cfg    config
	master []byte
	keys   *mac.KeyStore
	scheme marking.PNM
	// nets[e] is the routing tree of epoch e; nets[0] is the base field.
	nets []*topology.Network
	// epochs is the live history the server stamps frames from (nil on
	// static workloads).
	epochs *topology.EpochSet
	hosts  []packet.NodeID
	pairs  []molePair
	// pinned nodes keep their parent through every rewire.
	pinned []packet.NodeID
}

// rewire replaces the epochs after the base with cfg.Epochs
// depth-preserving rewires drawn from seed, and starts a fresh epoch
// history at the base.
func (sc *scenario) rewire(seed int64) {
	sc.nets = sc.nets[:1:1]
	for e := 1; e <= sc.cfg.Epochs; e++ {
		sc.nets = append(sc.nets, sc.nets[e-1].Rewire(seed*1009+int64(e), sc.pinned...))
	}
	if sc.cfg.Epochs > 0 {
		sc.epochs = topology.NewEpochSet(sc.nets[0])
	}
}

func (sc *scenario) topo() *topology.Network { return sc.nets[0] }

// newVerifier is the verifier factory handed to transport.Listen: one
// topology-restricted resolver chain per call, resolving against the
// epoch set on churn workloads.
func (sc *scenario) newVerifier() sink.Verifier {
	return sc.verifierWith(func(r sink.Resolver) sink.Resolver { return r })
}

// verifierWith builds a verifier chain whose resolver is passed through
// wrap first; the traced run wraps it with spans.
func (sc *scenario) verifierWith(wrap func(sink.Resolver) sink.Resolver) sink.Verifier {
	var r *sink.TopologyResolver
	if sc.epochs != nil {
		r = sink.NewTopologyResolverEpochs(sc.keys, sc.epochs)
	} else {
		r = sink.NewTopologyResolver(sc.keys, sc.topo())
	}
	v, err := sink.NewVerifier(sc.scheme, sc.keys, sc.topo().NumNodes(), wrap(r))
	if err != nil {
		// PNM with a resolver always has a verifier.
		panic(fmt.Sprintf("perfbench: verifier: %v", err))
	}
	return v
}

// buildScenario builds the field, its rewired epochs, the key store and
// the host and mole choices for one seed.
func buildScenario(cfg config, seed int64) (*scenario, error) {
	sc := &scenario{cfg: cfg, master: []byte(fmt.Sprintf("perfbench-%s-%d", cfg.Name, seed))}
	// The scale benchmark's field: average degree just above the
	// connectivity threshold at range 1.
	degree := math.Log(float64(cfg.Nodes)) + 5
	side := math.Sqrt(float64(cfg.Nodes) * math.Pi / degree)
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: cfg.Nodes, Side: side, RadioRange: 1,
		Seed: cfg.LayoutSeed, SinkAtCorner: true,
	})
	if err != nil {
		return nil, err
	}
	sc.keys = mac.NewKeyStore(sc.master)
	sc.nets = []*topology.Network{base}
	rng := rand.New(rand.NewSource(seed))
	if cfg.Hosts > 0 {
		byDepth := append([]packet.NodeID(nil), base.Nodes()...)
		sort.SliceStable(byDepth, func(i, j int) bool {
			return base.Depth(byDepth[i]) > base.Depth(byDepth[j])
		})
		if len(byDepth) < cfg.Hosts {
			return nil, fmt.Errorf("%d nodes cannot host %d sources", len(byDepth), cfg.Hosts)
		}
		sc.hosts = byDepth[:cfg.Hosts]
	} else {
		sc.hosts = append([]packet.NodeID(nil), base.Nodes()...)
		rng.Shuffle(len(sc.hosts), func(i, j int) { sc.hosts[i], sc.hosts[j] = sc.hosts[j], sc.hosts[i] })
	}
	if cfg.MolePairs > 0 {
		// A source mole at depth >= 3 colludes with its grandparent; the
		// pair pins the two links between them so the colluder stays on
		// the source's route through every rewire.
		var eligible []packet.NodeID
		for _, id := range sc.hosts {
			if base.Depth(id) >= 3 {
				eligible = append(eligible, id)
			}
		}
		if len(eligible) < cfg.MolePairs {
			return nil, fmt.Errorf("only %d nodes deep enough for %d mole pairs", len(eligible), cfg.MolePairs)
		}
		for i, src := range eligible[:cfg.MolePairs] {
			parent := base.Parent(src)
			p := molePair{src: src, colluder: base.Parent(parent), swap: i%2 == 1}
			sc.pairs = append(sc.pairs, p)
			sc.pinned = append(sc.pinned, src, parent)
		}
	}
	sc.rewire(seed)
	maxHops := 0
	for _, h := range sc.hosts {
		maxHops = max(maxHops, base.Depth(h)-1)
	}
	if maxHops < 1 {
		return nil, fmt.Errorf("degenerate field: deepest host at depth %d", maxHops+1)
	}
	sc.scheme = marking.PNM{P: analytic.ProbabilityForMarks(maxHops, 3)}
	return sc, nil
}

// stream is the recorded traffic: the messages in send order and the
// epoch each was marked under.
type stream struct {
	msgs   []packet.Message
	epochs []topology.EpochVersion
	// advanceAt[e-1] is the packet index from which epoch e is current.
	advanceAt []int
}

// generator marks traffic exactly as it arrives at the sink. It owns a
// key store of its own (same master secret), so the sender's key
// schedules never warm the server's caches.
type generator struct {
	sc     *scenario
	keys   *mac.KeyStore
	hasher *mac.Hasher
	env    *mole.Env
	rng    *rand.Rand
	macBuf []byte
	next   int
	// paths caches each host's forwarders per epoch.
	paths []map[packet.NodeID][]packet.NodeID
	// single, when set, is the lone source mole that sends every packet.
	single *mole.Source
}

// lone, when nonzero, replaces the workload's sources with that one
// source mole, as loadgen's stream has it.
func newGenerator(sc *scenario, seed int64, lone packet.NodeID) *generator {
	keys := mac.NewKeyStore(sc.master)
	g := &generator{
		sc: sc, keys: keys, hasher: keys.Hasher(),
		rng: rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		env: &mole.Env{Scheme: sc.scheme, StolenKeys: make(map[packet.NodeID]mac.Key)},
	}
	for range sc.nets {
		g.paths = append(g.paths, make(map[packet.NodeID][]packet.NodeID))
	}
	for _, p := range sc.pairs {
		g.env.StolenKeys[p.src] = keys.Key(p.src)
		g.env.StolenKeys[p.colluder] = keys.Key(p.colluder)
	}
	if lone != 0 {
		g.env.StolenKeys[lone] = keys.Key(lone)
		g.single = &mole.Source{
			ID:       lone,
			Base:     packet.Report{Event: 0xF00D, Location: uint32(lone)},
			Behavior: mole.MarkNever,
		}
	}
	return g
}

func (g *generator) path(e topology.EpochVersion, host packet.NodeID) []packet.NodeID {
	p, ok := g.paths[e][host]
	if !ok {
		p = g.sc.nets[e].Forwarders(host)
		g.paths[e][host] = p
	}
	return p
}

// nextMsg draws the next packet as marked under epoch e.
func (g *generator) nextMsg(e topology.EpochVersion) packet.Message {
	i := g.next
	g.next++
	if g.single != nil {
		msg := g.single.Next(g.env, g.rng)
		for _, hop := range g.path(e, g.single.ID) {
			g.macBuf = g.sc.scheme.MarkSched(g.hasher.Schedule(hop), g.macBuf, &msg, hop, g.rng)
		}
		return msg
	}
	host := g.sc.hosts[i%len(g.sc.hosts)]
	pair, moleSrc := molePair{}, false
	if len(g.sc.pairs) > 0 {
		// Every fourth packet comes from a mole pair; the other three
		// keep cycling over the hosts.
		host = g.sc.hosts[(i-i/4)%len(g.sc.hosts)]
		if i%4 == 3 {
			pair, moleSrc = g.sc.pairs[(i/4)%len(g.sc.pairs)], true
			host = pair.src
		}
	}
	msg := packet.Message{Report: packet.Report{Event: uint32(i + 1), Location: uint32(host), Seq: 1}}
	if moleSrc && pair.swap {
		src := mole.Forwarder{ID: pair.src, Behavior: mole.MarkSwap, SwapPartner: pair.colluder}
		msg, _ = src.Process(msg, g.env, g.rng)
	}
	for _, hop := range g.path(e, host) {
		if moleSrc && hop == pair.colluder {
			f := mole.Forwarder{ID: hop, Behavior: mole.MarkSwap, SwapPartner: pair.src}
			if !pair.swap {
				f = mole.Forwarder{ID: hop, Behavior: mole.MarkNever, Tampers: []mole.Tamper{mole.Alter{}}}
			}
			msg, _ = f.Process(msg, g.env, g.rng)
			continue
		}
		g.macBuf = g.sc.scheme.MarkSched(g.hasher.Schedule(hop), g.macBuf, &msg, hop, g.rng)
	}
	return msg
}

// record draws n packets (from the lone source mole instead, when lone
// is nonzero). On churn workloads the epochs advance evenly over the
// first span packets, so every rewire lands inside a run that folds at
// least that many.
func record(sc *scenario, seed int64, n, span int, lone packet.NodeID) *stream {
	g := newGenerator(sc, seed, lone)
	st := &stream{msgs: make([]packet.Message, 0, n), epochs: make([]topology.EpochVersion, 0, n)}
	epochs := sc.cfg.Epochs
	for e := 1; e <= epochs; e++ {
		at := span * e / (epochs + 1)
		if pe := sc.cfg.PollEvery; pe > 0 {
			at -= at % pe // advances land on batch boundaries
		}
		st.advanceAt = append(st.advanceAt, at)
	}
	cur := topology.EpochVersion(0)
	for i := 0; i < n; i++ {
		for int(cur) < epochs && i >= st.advanceAt[cur] {
			cur++
		}
		st.msgs = append(st.msgs, g.nextMsg(cur))
		st.epochs = append(st.epochs, cur)
	}
	// Move every mark into one pointer-free array: the stream stays live
	// through the run, and one array costs the collector far less to
	// keep than one small allocation per packet.
	total := 0
	for _, m := range st.msgs {
		total += len(m.Marks)
	}
	arena := make([]packet.Mark, 0, total)
	for i := range st.msgs {
		a := len(arena)
		arena = append(arena, st.msgs[i].Marks...)
		st.msgs[i].Marks = arena[a:len(arena):len(arena)]
	}
	return st
}
