package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"time"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// ShardBenchConfig parameterizes the sharded-sink benchmark committed as
// BENCH_shard.json. Unlike the resolver and sink benches, the workload
// here is keyed: every source is a distinct report stream (unique Event),
// so the cluster's FNV partition spreads the stream across all shards and
// the merged order matrix is exercised at scale. The stream is generated
// in batches and fed to the serial baseline and every cluster in
// lockstep, so a 1M-source sweep never materializes 1M packets at once.
type ShardBenchConfig struct {
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// Hosts is how many distinct (deepest) nodes the keyed sources cycle
	// through; depth spread keeps the topology resolver's searches
	// non-trivial while path marking stays precomputable.
	Hosts int `json:"hosts"`
	// SourceSweep lists the keyed-source counts to sweep; each source
	// emits one marked packet.
	SourceSweep []int `json:"source_sweep"`
	// Shards lists the cluster widths measured against the serial
	// baseline at every sweep point.
	Shards []int `json:"shards"`
	// BatchLen is the lockstep generation/fold batch size, mimicking the
	// transport sink loop's queue-bounded drain.
	BatchLen int `json:"batch_len"`
	// Seed drives topology and marking.
	Seed int64 `json:"seed"`
	// Scenario shapes the single-shard crash/restore run.
	Scenario ShardScenarioConfig `json:"scenario"`
}

// ShardScenarioConfig shapes the crash/restore scenario: one shard of a
// live cluster is crashed mid-stream, traffic keeps flowing (the victim's
// partition terminates as accounted drops), and the shard is restored
// from its own PNM2 blob.
type ShardScenarioConfig struct {
	// Sources is the keyed-source count for the scenario stream.
	Sources int `json:"sources"`
	// Shards is the cluster width.
	Shards int `json:"shards"`
	// Victim is the shard index crashed and restored.
	Victim int `json:"victim"`
}

// DefaultShardBench sizes the sweep per the roadmap: 10k → 1M keyed
// sources over a ~2k-node geometric network, clusters of 1, 2 and 8
// shards against the serial baseline.
func DefaultShardBench() ShardBenchConfig {
	return ShardBenchConfig{
		Nodes:       2048,
		Hosts:       64,
		SourceSweep: []int{10_000, 100_000, 1_000_000},
		Shards:      []int{1, 2, 8},
		BatchLen:    1024,
		Seed:        11,
		Scenario:    ShardScenarioConfig{Sources: 10_000, Shards: 4, Victim: 2},
	}
}

// ShardBenchRow is one sink configuration's measurement at one sweep
// point. Rows at the same sweep point must agree on VerdictHash,
// MarksVerified and Stops — the cluster's determinism contract, enforced
// at generation time.
type ShardBenchRow struct {
	// Mode is "serial" (single unsharded tracker) or "cluster".
	Mode string `json:"mode"`
	// Shards is the cluster width (1 on the serial row).
	Shards int `json:"shards"`
	// Sources is the sweep point: distinct keyed report streams.
	Sources int `json:"sources"`
	// Packets is the stream length folded (one packet per source).
	Packets int `json:"packets"`
	// NsPerPacket is mean observe wall time per packet (verification +
	// fold; stream generation and hashing are outside the timed region).
	NsPerPacket float64 `json:"ns_per_packet"`
	// VerdictHash digests every per-packet Result in stream order plus
	// the final verdict.
	VerdictHash string `json:"verdict_hash"`
	// MarksVerified and Stops are verdict-visible counters; identical on
	// every row at the same sweep point.
	MarksVerified uint64 `json:"marks_verified"`
	Stops         uint64 `json:"stops"`
}

// ShardScenarioResult is the committed crash/restore scenario outcome.
type ShardScenarioResult struct {
	Config ShardScenarioConfig `json:"config"`
	// DroppedWhileDown is how many packets of the victim's partition were
	// discarded during the outage.
	DroppedWhileDown int `json:"dropped_while_down"`
	// PacketsFolded is the merged packet count at rest; the ledger
	// PacketsFolded + DroppedWhileDown == Sources is enforced.
	PacketsFolded int `json:"packets_folded"`
	// VerdictHash digests the final verdict.
	VerdictHash string `json:"verdict_hash"`
	// RestoreRoundTrip records that restoring the victim from its
	// at-crash PNM2 blob changed neither the merged packet count nor the
	// verdict (enforced at generation time).
	RestoreRoundTrip bool `json:"restore_round_trip"`
}

// ShardBenchResult is the committed BENCH_shard.json document.
type ShardBenchResult struct {
	Env      BenchEnv            `json:"env"`
	Config   ShardBenchConfig    `json:"config"`
	Rows     []ShardBenchRow     `json:"rows"`
	Scenario ShardScenarioResult `json:"scenario"`
}

// ShardBench runs the sweep and the crash/restore scenario. Every cluster
// row's verdict hash is checked against the serial baseline's before the
// result is returned — a divergence is an error, never a committed row.
func ShardBench(cfg ShardBenchConfig) (*ShardBenchResult, error) {
	if cfg.BatchLen < 1 || len(cfg.SourceSweep) == 0 || len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("experiment: batch_len, source_sweep and shards must be set")
	}
	topo, err := geometricOfSize(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := mac.NewKeyStore([]byte("shard-bench"))
	gen, err := newKeyedGen(cfg.Nodes, cfg.Hosts, cfg.Seed, topo, keys)
	if err != nil {
		return nil, err
	}

	res := &ShardBenchResult{Env: CaptureBenchEnv(false), Config: cfg}
	for _, sources := range cfg.SourceSweep {
		rows, err := runShardSweepPoint(cfg, gen, topo, keys, sources)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	scenario, err := runShardScenario(cfg, gen, topo, keys)
	if err != nil {
		return nil, err
	}
	res.Scenario = *scenario
	return res, nil
}

// keyedGen deterministically generates the keyed-source stream in
// batches: source i hosts on the (i mod Hosts)-th deepest node and emits
// one packet with a stream-unique Event, marked along the host's real
// forwarding path. reset rewinds to source 0 with the marking RNG
// reseeded, so every configuration at a sweep point folds a byte-
// identical stream.
type keyedGen struct {
	scheme marking.PNM
	keys   *mac.KeyStore
	hasher *mac.Hasher
	macBuf []byte
	seed   int64
	hosts  []packet.NodeID
	paths  [][]packet.NodeID
	rng    *rand.Rand
	next   int
}

func newKeyedGen(nodes, hosts int, seed int64, topo *topology.Network, keys *mac.KeyStore) (*keyedGen, error) {
	all := topo.Nodes()
	byDepth := make([]packet.NodeID, len(all))
	copy(byDepth, all)
	sort.SliceStable(byDepth, func(i, j int) bool {
		return topo.Depth(byDepth[i]) > topo.Depth(byDepth[j])
	})
	if hosts < 1 || len(byDepth) < hosts {
		return nil, fmt.Errorf("experiment: %d nodes cannot host %d keyed-source hosts", len(byDepth), hosts)
	}
	hostIDs := byDepth[:hosts]
	maxHops := topo.Depth(hostIDs[0]) - 1
	if maxHops < 1 {
		return nil, fmt.Errorf("experiment: degenerate topology at size %d", nodes)
	}
	paths := make([][]packet.NodeID, len(hostIDs))
	for i, h := range hostIDs {
		paths[i] = topo.Forwarders(h)
	}
	return &keyedGen{
		scheme: marking.PNM{P: analytic.ProbabilityForMarks(maxHops, 3)},
		keys:   keys,
		hasher: keys.Hasher(),
		seed:   seed,
		hosts:  hostIDs,
		paths:  paths,
	}, nil
}

func (g *keyedGen) reset() {
	g.rng = rand.New(rand.NewSource(g.seed))
	g.next = 0
}

// batch fills buf with the next len(buf) packets of the stream,
// overwriting buf in place: each slot's mark storage is reused, so
// steady-state generation allocates nothing and the messages of the
// previous batch are invalidated. Marking runs on cached key schedules
// through MarkSched, which is byte-identical to Scheme.Mark.
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

// shardVerifierFactory builds the per-shard verifier: topology resolver
// (the exhaustive resolver's O(n)-per-report table build is infeasible at
// 1M distinct reports). Safe to call from the cluster's worker
// goroutines, which bind each verifier into the shared registry: each
// verifier is factory-owned.
func shardVerifierFactory(scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network) func() sink.Verifier {
	return func() sink.Verifier {
		v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), sink.NewTopologyResolver(keys, topo))
		if err != nil {
			panic(err)
		}
		return v
	}
}

// hashResults streams a batch of Results into the row digest, in stream
// order, in resultHash's format.
func hashResults(h hash.Hash, results []sink.Result) {
	for _, res := range results {
		fmt.Fprintf(h, "%v|%v;", res.Stopped, res.Chain)
	}
}

func finishHash(h hash.Hash, verdict sink.Verdict) string {
	fmt.Fprintf(h, "verdict:%+v", verdict)
	return hex.EncodeToString(h.Sum(nil))
}

// runShardSweepPoint measures the serial baseline and every cluster width
// over the same sources-packet stream, feeding each configuration the
// regenerated stream batch by batch.
func runShardSweepPoint(cfg ShardBenchConfig, gen *keyedGen, topo *topology.Network, keys *mac.KeyStore, sources int) ([]ShardBenchRow, error) {
	buf := make([]packet.Message, cfg.BatchLen)
	resBuf := make([]sink.Result, 0, cfg.BatchLen)

	feed := func(observe func([]packet.Message) []sink.Result, digest hash.Hash) time.Duration {
		gen.reset()
		var spent time.Duration
		for fed := 0; fed < sources; {
			n := min(cfg.BatchLen, sources-fed)
			batch := buf[:n]
			gen.batch(batch)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			start := time.Now()
			results := observe(batch)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			spent += time.Since(start)
			hashResults(digest, results)
			fed += n
		}
		return spent
	}

	// Serial baseline: one unsharded tracker.
	reg := obs.New()
	v, err := sink.NewVerifier(gen.scheme, keys, topo.NumNodes(), sink.NewTopologyResolver(keys, topo))
	if err != nil {
		return nil, err
	}
	if ins, ok := v.(sink.Instrumentable); ok {
		ins.Instrument(reg)
	}
	tracker := sink.NewTracker(v, topo)
	tracker.Instrument(reg)
	digest := sha256.New()
	spent := feed(func(batch []packet.Message) []sink.Result {
		// ObserveKeep with one reset per batch: hashResults reads the
		// whole batch's Results after the loop, and per-packet Observe
		// would recycle each Result's chain storage under it.
		resBuf = resBuf[:0]
		tracker.ResetVerifyScratch()
		for _, m := range batch {
			resBuf = append(resBuf, tracker.ObserveKeep(m))
		}
		return resBuf
	}, digest)
	if got := tracker.Packets(); got != sources {
		return nil, fmt.Errorf("experiment: serial folded %d of %d packets", got, sources)
	}
	serial := ShardBenchRow{
		Mode: "serial", Shards: 1, Sources: sources, Packets: sources,
		NsPerPacket:   float64(spent.Nanoseconds()) / float64(sources),
		VerdictHash:   finishHash(digest, tracker.Verdict()),
		MarksVerified: reg.Counter("sink.verify.marks_verified").Value(),
		Stops:         reg.Counter("sink.verify.stops").Value(),
	}
	rows := []ShardBenchRow{serial}

	for _, shards := range cfg.Shards {
		reg := obs.New()
		cluster := sink.NewCluster(shards, 1, shardVerifierFactory(gen.scheme, keys, topo), topo, reg)
		digest := sha256.New()
		spent := feed(func(batch []packet.Message) []sink.Result {
			results, dropped := cluster.Observe(batch, nil)
			if dropped > 0 {
				panic(fmt.Sprintf("experiment: cluster dropped %d packets with no shard down", dropped))
			}
			return results
		}, digest)
		row := ShardBenchRow{
			Mode: "cluster", Shards: shards, Sources: sources, Packets: cluster.Packets(),
			NsPerPacket:   float64(spent.Nanoseconds()) / float64(sources),
			VerdictHash:   finishHash(digest, cluster.Verdict()),
			MarksVerified: reg.Counter("sink.verify.marks_verified").Value(),
			Stops:         reg.Counter("sink.verify.stops").Value(),
		}
		cluster.Close()
		if row.Packets != sources {
			return nil, fmt.Errorf("experiment: shards=%d folded %d of %d packets", shards, row.Packets, sources)
		}
		if row.VerdictHash != serial.VerdictHash {
			return nil, fmt.Errorf("experiment: shards=%d sources=%d verdict hash %s diverged from serial %s",
				shards, sources, row.VerdictHash, serial.VerdictHash)
		}
		if row.MarksVerified != serial.MarksVerified || row.Stops != serial.Stops {
			return nil, fmt.Errorf("experiment: shards=%d sources=%d verdict-visible counters (%d, %d) diverged from serial (%d, %d)",
				shards, sources, row.MarksVerified, row.Stops, serial.MarksVerified, serial.Stops)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runShardScenario crashes one shard mid-stream, keeps folding (the
// victim's partition terminates as counted drops), restores the shard
// from its at-crash PNM2 blob and verifies the restore is a lossless
// round trip: merged packet count and verdict are unchanged by it, and
// the final ledger folded + dropped == sources holds exactly.
func runShardScenario(cfg ShardBenchConfig, gen *keyedGen, topo *topology.Network, keys *mac.KeyStore) (*ShardScenarioResult, error) {
	sc := cfg.Scenario
	if sc.Sources < 4 || sc.Shards < 2 || sc.Victim < 0 || sc.Victim >= sc.Shards {
		return nil, fmt.Errorf("experiment: bad shard scenario config %+v", sc)
	}
	reg := obs.New()
	cluster := sink.NewCluster(sc.Shards, 1, shardVerifierFactory(gen.scheme, keys, topo), topo, reg)
	defer cluster.Close()

	buf := make([]packet.Message, cfg.BatchLen)
	gen.reset()
	dropped := 0
	feed := func(limit int) {
		for gen.next < limit {
			n := min(cfg.BatchLen, limit-gen.next)
			batch := buf[:n]
			gen.batch(batch)
			_, d := cluster.Observe(batch, nil)
			dropped += d
		}
	}

	// Phase 1: half the stream into a healthy cluster.
	feed(sc.Sources / 2)
	if dropped != 0 {
		return nil, fmt.Errorf("experiment: scenario dropped %d packets before the crash", dropped)
	}
	if err := cluster.CrashShard(sc.Victim); err != nil {
		return nil, err
	}

	// Phase 2: a quarter more while the victim is down; its partition of
	// the keyed stream is discarded and counted.
	feed(3 * sc.Sources / 4)
	downDropped := dropped
	if downDropped == 0 {
		return nil, fmt.Errorf("experiment: no packets hit the down shard — partition not exercised")
	}
	packetsDown := cluster.Packets()
	verdictDown := verdictDigest(cluster.Verdict())

	// Restore must be a lossless round trip of the at-crash evidence.
	if err := cluster.RestoreShard(sc.Victim); err != nil {
		return nil, err
	}
	if got := cluster.Packets(); got != packetsDown {
		return nil, fmt.Errorf("experiment: restore changed merged packets %d -> %d", packetsDown, got)
	}
	if got := verdictDigest(cluster.Verdict()); got != verdictDown {
		return nil, fmt.Errorf("experiment: restore changed the verdict")
	}

	// Phase 3: the rest of the stream into the healed cluster.
	feed(sc.Sources)
	if dropped != downDropped {
		return nil, fmt.Errorf("experiment: packets dropped after restore: %d", dropped-downDropped)
	}
	folded := cluster.Packets()
	if folded+dropped != sc.Sources {
		return nil, fmt.Errorf("experiment: scenario ledger off: folded %d + dropped %d != %d", folded, dropped, sc.Sources)
	}
	return &ShardScenarioResult{
		Config:           sc,
		DroppedWhileDown: downDropped,
		PacketsFolded:    folded,
		VerdictHash:      verdictDigest(cluster.Verdict()),
		RestoreRoundTrip: true,
	}, nil
}

// verdictDigest hashes a verdict alone (no per-packet results).
func verdictDigest(v sink.Verdict) string {
	h := sha256.New()
	fmt.Fprintf(h, "verdict:%+v", v)
	return hex.EncodeToString(h.Sum(nil))
}

// RenderShardBench serializes the result as the committed JSON document.
func RenderShardBench(res *ShardBenchResult) (string, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
