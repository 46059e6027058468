package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"testing"
	"time"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Bench stream kinds.
const (
	// StreamInterleaved is the concurrent multi-source stream: every
	// report retransmitted several times, deliveries interleaved.
	StreamInterleaved = "interleaved"
	// StreamKeyed is one packet per source, every source a distinct
	// report stream.
	StreamKeyed = "keyed"
)

// Bench resolver variants.
const (
	// ResolverExhaustiveSingle is the exhaustive resolver with a
	// single-entry table cache, the pre-LRU baseline.
	ResolverExhaustiveSingle = "exhaustive-single"
	// ResolverExhaustiveLRU is the exhaustive resolver with a
	// sink.DefaultTableCacheSize-entry LRU table cache.
	ResolverExhaustiveLRU = "exhaustive-lru"
	// ResolverTopology is the topology-guided resolver.
	ResolverTopology = "topology"
)

// benchCacheCapacity maps each bench resolver variant to its table-cache
// capacity (0: the topology resolver, which keeps no tables).
var benchCacheCapacity = map[string]int{
	ResolverExhaustiveSingle: 1,
	ResolverExhaustiveLRU:    sink.DefaultTableCacheSize,
	ResolverTopology:         0,
}

// SinkBenchConfig parameterizes the sink benchmark harness. The
// committed BENCH_sink.json (DefaultSinkBench) and BENCH_scale.json
// (DefaultScaleBench) are two values of it.
type SinkBenchConfig struct {
	// Stream is StreamInterleaved or StreamKeyed.
	Stream string `json:"stream"`
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// Seed drives topology and marking.
	Seed int64 `json:"seed"`
	// KeyLabel seeds the network's key store.
	KeyLabel string `json:"key_label"`
	// Hosts is how many deepest nodes the keyed sources cycle through.
	Hosts int `json:"hosts,omitempty"`
	// Reports and Repeats shape the interleaved stream: each source emits
	// Reports distinct reports, each retransmitted Repeats times.
	Reports int `json:"reports,omitempty"`
	Repeats int `json:"repeats,omitempty"`
	// SourceSweep lists the source counts to measure.
	SourceSweep []int `json:"source_sweep"`
	// Resolvers lists the resolver variants to run. The first one's
	// serial row is the reference every row at a sweep point must match.
	Resolvers []string `json:"resolvers"`
	// Shapes lists the sink engine shapes measured against the serial
	// tracker, each a distinct sink.NewCluster(shards, workers) call.
	Shapes []EngineShape `json:"shapes"`
	// BatchLen is the generation and fold batch size, mimicking the sink
	// loops' queue-bounded drain. The first batch of every row is the
	// untimed warm-up.
	BatchLen int `json:"batch_len"`
	// MacIters sizes the mac and table_build micro sections; 0 skips
	// them.
	MacIters int `json:"mac_iters,omitempty"`
	// Scenario, when set, adds the shard crash/restore run.
	Scenario *ShardScenarioConfig `json:"scenario,omitempty"`
}

// EngineShape is one sink.Cluster shape. Workers above 1 only apply to a
// single shard (the pipelined round); a multi-shard cluster runs one
// worker per shard.
type EngineShape struct {
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
}

// ShardScenarioConfig shapes the crash/restore scenario: one shard of a
// live cluster is crashed mid-stream, traffic keeps flowing (the
// victim's partition terminates as accounted drops), and the shard is
// restored from its own PNM2 blob.
type ShardScenarioConfig struct {
	// Sources is the sweep point the scenario stream is drawn from.
	Sources int `json:"sources"`
	// Shards is the cluster width.
	Shards int `json:"shards"`
	// Victim is the shard index crashed and restored.
	Victim int `json:"victim"`
}

// DefaultSinkBench is the committed BENCH_sink.json configuration: the
// interleaved 1024-node stream through every resolver, serial and at
// each pipelined width, plus the MAC engine micro sections.
func DefaultSinkBench() SinkBenchConfig {
	return SinkBenchConfig{
		Stream:      StreamInterleaved,
		Nodes:       1024,
		Seed:        9,
		KeyLabel:    "resolver-bench",
		Reports:     4,
		Repeats:     8,
		SourceSweep: []int{8},
		Resolvers:   []string{ResolverExhaustiveSingle, ResolverExhaustiveLRU, ResolverTopology},
		Shapes:      []EngineShape{{1, 1}, {1, 2}, {1, 4}, {1, 8}},
		BatchLen:    64,
		MacIters:    4096,
	}
}

// DefaultScaleBench is the committed BENCH_scale.json configuration: 10k
// to 1M keyed sources over a 2k-node network through the topology
// resolver (the exhaustive table build is infeasible at 1M distinct
// reports), at every pipelined width and shard count, plus the
// crash/restore scenario.
func DefaultScaleBench() SinkBenchConfig {
	return SinkBenchConfig{
		Stream:      StreamKeyed,
		Nodes:       2048,
		Seed:        11,
		KeyLabel:    "shard-bench",
		Hosts:       64,
		SourceSweep: []int{10_000, 100_000, 1_000_000},
		Resolvers:   []string{ResolverTopology},
		Shapes:      []EngineShape{{1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 1}, {8, 1}},
		BatchLen:    1024,
		Scenario:    &ShardScenarioConfig{Sources: 10_000, Shards: 4, Victim: 2},
	}
}

// SinkBenchRow is one (sweep point, resolver, engine shape) measurement.
// Rows at one sweep point agree on VerdictHash, MarksVerified and Stops
// with the reference row — enforced at generation time, never committed
// diverged.
type SinkBenchRow struct {
	// Resolver names the variant; CacheCapacity is its table-cache
	// capacity (exhaustive variants only).
	Resolver      string `json:"resolver"`
	CacheCapacity int    `json:"cache_capacity,omitempty"`
	// Mode is "serial" (the reference sink.Tracker) or "cluster".
	Mode    string `json:"mode"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	// Sources is the sweep point; Packets the stream length folded.
	Sources int `json:"sources"`
	Packets int `json:"packets"`
	// GOMAXPROCS and NumCPU are recorded per row: a scaling claim is only
	// meaningful relative to them.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// NsPerPacket, BytesPerPacket and AllocsPerPacket cover only the
	// Observe calls after the warm-up batch.
	NsPerPacket     float64 `json:"ns_per_packet"`
	BytesPerPacket  float64 `json:"bytes_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	// VerdictHash digests every per-packet Result in stream order plus
	// the final verdict.
	VerdictHash string `json:"verdict_hash"`
	// TableBuilds, CacheHits, CacheMisses and CacheHitRate describe the
	// exhaustive resolver's table cache.
	TableBuilds  uint64  `json:"table_builds"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// ResolverVisits is the topology resolver's HMAC node visits
	// (sink.resolver.probes); VisitsPerMark divides them by the anonymous
	// marks resolved.
	ResolverVisits uint64  `json:"resolver_visits"`
	VisitsPerMark  float64 `json:"visits_per_mark"`
	// CandidatesPerMark is the mean candidate MACs checked per anonymous
	// mark (sink.verify.probes_per_mark).
	CandidatesPerMark float64 `json:"candidates_per_mark"`
	// ScheduleHits and ScheduleMisses are key-schedule cache locality
	// counters; they legitimately vary with the engine shape.
	ScheduleHits   uint64 `json:"schedule_hits"`
	ScheduleMisses uint64 `json:"schedule_misses"`
	// MarksVerified and Stops are verdict-visible counters.
	MarksVerified uint64 `json:"marks_verified"`
	Stops         uint64 `json:"stops"`
}

// MacBenchResult is the per-call MAC engine micro-benchmark: cold
// (per-call HMAC pad absorption, as node-side marking does it) against
// the sink's precomputed key schedule.
type MacBenchResult struct {
	Iters int `json:"iters"`
	// Sum rows measure the 80-byte nested-MAC input shape.
	ColdSumNs      float64 `json:"cold_sum_ns_per_op"`
	SchedSumNs     float64 `json:"sched_sum_ns_per_op"`
	ColdSumAllocs  float64 `json:"cold_sum_allocs_per_op"`
	SchedSumAllocs float64 `json:"sched_sum_allocs_per_op"`
	SumSpeedup     float64 `json:"sum_speedup"`
	// Anon rows measure anonymous-ID derivation, the resolver table's
	// inner loop.
	ColdAnonNs      float64 `json:"cold_anon_ns_per_op"`
	SchedAnonNs     float64 `json:"sched_anon_ns_per_op"`
	ColdAnonAllocs  float64 `json:"cold_anon_allocs_per_op"`
	SchedAnonAllocs float64 `json:"sched_anon_allocs_per_op"`
	AnonSpeedup     float64 `json:"anon_speedup"`
}

// TableBenchResult measures the ExhaustiveResolver table-build hot loop —
// one anonymous ID per node — cold against a warm schedule cache.
type TableBenchResult struct {
	Nodes  int `json:"nodes"`
	Builds int `json:"builds"`
	// ColdNsPerBuild derives every ID through per-call HMAC.
	ColdNsPerBuild float64 `json:"cold_ns_per_build"`
	// WarmNsPerBuild derives them through a warm Hasher.
	WarmNsPerBuild float64 `json:"warm_ns_per_build"`
	Speedup        float64 `json:"speedup"`
}

// ShardScenarioResult is the crash/restore scenario outcome.
type ShardScenarioResult struct {
	// DroppedWhileDown is how many packets of the victim's partition were
	// discarded during the outage.
	DroppedWhileDown int `json:"dropped_while_down"`
	// PacketsFolded is the merged packet count at rest; the ledger
	// PacketsFolded + DroppedWhileDown == stream length is enforced.
	PacketsFolded int `json:"packets_folded"`
	// VerdictHash digests the final verdict.
	VerdictHash string `json:"verdict_hash"`
	// RestoreRoundTrip records that restoring the victim from its
	// at-crash PNM2 blob changed neither the merged packet count nor the
	// verdict (enforced at generation time).
	RestoreRoundTrip bool `json:"restore_round_trip"`
}

// SinkBenchResult is a committed BENCH_sink.json / BENCH_scale.json
// document.
type SinkBenchResult struct {
	Env      BenchEnv             `json:"env"`
	Config   SinkBenchConfig      `json:"config"`
	Mac      *MacBenchResult      `json:"mac,omitempty"`
	Table    *TableBenchResult    `json:"table_build,omitempty"`
	Rows     []SinkBenchRow       `json:"rows"`
	Scenario *ShardScenarioResult `json:"scenario,omitempty"`
}

// SinkBench runs the configured harness: at every sweep point, every
// resolver folds the stream once through the serial tracker and once
// through each engine shape. Every row is checked against the reference
// row before anything is returned — a divergence is an error, never a
// committed row. Rows run one at a time: the output is wall time.
func SinkBench(cfg SinkBenchConfig) (*SinkBenchResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo, err := geometricOfSize(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := mac.NewKeyStore([]byte(cfg.KeyLabel))
	stream, scheme, err := newBenchStream(cfg, topo, keys)
	if err != nil {
		return nil, err
	}

	res := &SinkBenchResult{Env: CaptureBenchEnv(true), Config: cfg}
	if cfg.MacIters > 0 {
		m := macBench(keys, cfg.MacIters)
		t := tableBench(keys, topo, cfg.MacIters/max(topo.NumNodes(), 1)+1)
		res.Mac, res.Table = &m, &t
	}
	shapes := append([]EngineShape{{}}, cfg.Shapes...) // the zero shape is the serial tracker
	for _, sources := range cfg.SourceSweep {
		var ref *SinkBenchRow
		for _, name := range cfg.Resolvers {
			factory, capacity := benchVerifier(name, scheme, keys, topo)
			for _, shape := range shapes {
				row, err := runSinkBenchRow(stream, sources, cfg.BatchLen, shape, factory, topo)
				if err != nil {
					return nil, err
				}
				row.Resolver, row.CacheCapacity = name, capacity
				if ref == nil {
					ref = &row
				} else if err := row.matches(*ref); err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	if cfg.Scenario != nil {
		factory, _ := benchVerifier(cfg.Resolvers[0], scheme, keys, topo)
		if res.Scenario, err = runShardScenario(*cfg.Scenario, cfg.BatchLen, stream, factory, topo); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (cfg SinkBenchConfig) validate() error {
	if cfg.BatchLen < 1 || len(cfg.SourceSweep) == 0 || len(cfg.Resolvers) == 0 {
		return fmt.Errorf("experiment: batch_len, source_sweep and resolvers must be set")
	}
	for _, name := range cfg.Resolvers {
		if _, ok := benchCacheCapacity[name]; !ok {
			return fmt.Errorf("experiment: unknown resolver %q", name)
		}
	}
	seen := map[EngineShape]bool{}
	for _, s := range cfg.Shapes {
		if s.Shards < 1 || s.Workers < 1 || (s.Shards > 1 && s.Workers > 1) || seen[s] {
			return fmt.Errorf("experiment: bad or duplicate engine shape %+v", s)
		}
		seen[s] = true
	}
	return nil
}

// matches enforces the determinism contract against the reference row.
func (row SinkBenchRow) matches(ref SinkBenchRow) error {
	if row.VerdictHash != ref.VerdictHash || row.MarksVerified != ref.MarksVerified || row.Stops != ref.Stops {
		return fmt.Errorf("experiment: %s %s shards=%d workers=%d sources=%d (hash %s, marks %d, stops %d) diverged from %s %s (hash %s, marks %d, stops %d)",
			row.Resolver, row.Mode, row.Shards, row.Workers, row.Sources, row.VerdictHash, row.MarksVerified, row.Stops,
			ref.Resolver, ref.Mode, ref.VerdictHash, ref.MarksVerified, ref.Stops)
	}
	return nil
}

// benchVerifier returns the factory for one resolver variant's verifier
// chain and the variant's table-cache capacity. The factory is safe to
// call from a cluster's worker goroutines: each chain it builds is
// private.
func benchVerifier(name string, scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network) (func() sink.Verifier, int) {
	capacity := benchCacheCapacity[name]
	return func() sink.Verifier {
		var r sink.Resolver = sink.NewTopologyResolver(keys, topo)
		if capacity > 0 {
			r = sink.NewExhaustiveResolverCache(keys, topo.Nodes(), capacity)
		}
		v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), r)
		if err != nil {
			panic(err)
		}
		return v
	}, capacity
}

// benchEngine is the part of a sink the row runner drives; *sink.Cluster
// implements it, and serialEngine adapts the reference tracker.
type benchEngine interface {
	Observe(batch []packet.Message, epochs []topology.EpochVersion) ([]sink.Result, int)
	Packets() int
	Verdict() sink.Verdict
	Close()
}

// serialEngine runs the reference sink.Tracker one packet at a time,
// keeping a whole batch's Results valid together.
type serialEngine struct {
	*sink.Tracker
	results []sink.Result
}

func (e *serialEngine) Observe(batch []packet.Message, _ []topology.EpochVersion) ([]sink.Result, int) {
	e.results = e.results[:0]
	e.ResetVerifyScratch()
	for _, m := range batch {
		e.results = append(e.results, e.ObserveKeep(m))
	}
	return e.results, 0
}

func (e *serialEngine) Close() {}

// runSinkBenchRow folds one sweep point's stream once through one engine
// shape (the zero shape: the serial tracker). Only Observe is timed and
// bracketed by MemStats reads, and the first batch is the warm-up
// (schedule caches, arenas and pipeline scratch fill there); generation
// and result hashing sit outside both.
func runSinkBenchRow(stream benchStream, sources, batchLen int, shape EngineShape, factory func() sink.Verifier, topo *topology.Network) (SinkBenchRow, error) {
	reg := obs.New()
	serial := shape == (EngineShape{})
	var eng benchEngine
	if serial {
		tracker := sink.NewTracker(factory(), topo)
		tracker.Instrument(reg)
		eng = &serialEngine{Tracker: tracker}
	} else {
		eng = sink.NewCluster(shape.Shards, shape.Workers, factory, topo, reg)
	}
	defer eng.Close()

	packets := stream.reset(sources)
	buf := make([]packet.Message, batchLen)
	digest := sha256.New()
	var spent time.Duration
	var m0, m1 runtime.MemStats
	var mallocs, bytes uint64
	measured := 0
	for fed := 0; fed < packets; {
		batch := buf[:min(batchLen, packets-fed)]
		stream.batch(batch)
		var results []sink.Result
		var dropped int
		if fed == 0 {
			results, dropped = eng.Observe(batch, nil)
		} else {
			runtime.ReadMemStats(&m0)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			start := time.Now()
			results, dropped = eng.Observe(batch, nil)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			spent += time.Since(start)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			measured += len(batch)
		}
		if dropped > 0 {
			return SinkBenchRow{}, fmt.Errorf("experiment: engine %+v dropped %d packets with no shard down", shape, dropped)
		}
		hashResults(digest, results)
		fed += len(batch)
	}
	if measured == 0 {
		return SinkBenchRow{}, fmt.Errorf("experiment: %d packets fit in the warm-up batch of %d", packets, batchLen)
	}
	if got := eng.Packets(); got != packets {
		return SinkBenchRow{}, fmt.Errorf("experiment: engine %+v folded %d of %d packets", shape, got, packets)
	}

	hits := reg.Counter("sink.resolver.cache_hits").Value()
	misses := reg.Counter("sink.resolver.cache_misses").Value()
	visits := reg.Counter("sink.resolver.probes").Value()
	perMark := reg.Histogram("sink.verify.probes_per_mark")
	row := SinkBenchRow{
		Mode: "cluster", Shards: shape.Shards, Workers: shape.Workers,
		Sources: sources, Packets: packets,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		NsPerPacket:       float64(spent.Nanoseconds()) / float64(measured),
		BytesPerPacket:    float64(bytes) / float64(measured),
		AllocsPerPacket:   float64(mallocs) / float64(measured),
		VerdictHash:       finishHash(digest, eng.Verdict()),
		TableBuilds:       reg.Counter("sink.resolver.table_builds").Value(),
		CacheHits:         hits,
		CacheMisses:       misses,
		ResolverVisits:    visits,
		VisitsPerMark:     float64(visits) / float64(max(perMark.Count(), 1)),
		CandidatesPerMark: perMark.Mean(),
		ScheduleHits:      reg.Counter("mac.schedule.hits").Value(),
		ScheduleMisses:    reg.Counter("mac.schedule.misses").Value(),
		MarksVerified:     reg.Counter("sink.verify.marks_verified").Value(),
		Stops:             reg.Counter("sink.verify.stops").Value(),
	}
	if serial {
		row.Mode, row.Shards, row.Workers = "serial", 1, 1
	}
	if hits+misses > 0 {
		row.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return row, nil
}

// runShardScenario crashes one shard mid-stream, keeps folding (the
// victim's partition terminates as counted drops), restores the shard
// from its at-crash PNM2 blob and verifies the restore is a lossless
// round trip: merged packet count and verdict are unchanged by it, and
// the final ledger folded + dropped == stream length holds exactly.
func runShardScenario(sc ShardScenarioConfig, batchLen int, stream benchStream, factory func() sink.Verifier, topo *topology.Network) (*ShardScenarioResult, error) {
	if sc.Sources < 4 || sc.Shards < 2 || sc.Victim < 0 || sc.Victim >= sc.Shards {
		return nil, fmt.Errorf("experiment: bad shard scenario config %+v", sc)
	}
	cluster := sink.NewCluster(sc.Shards, 1, factory, topo, nil)
	defer cluster.Close()

	total := stream.reset(sc.Sources)
	buf := make([]packet.Message, batchLen)
	fed, dropped := 0, 0
	feed := func(limit int) {
		for fed < limit {
			batch := buf[:min(batchLen, limit-fed)]
			stream.batch(batch)
			_, d := cluster.Observe(batch, nil)
			dropped += d
			fed += len(batch)
		}
	}

	// Phase 1: half the stream into a healthy cluster.
	feed(total / 2)
	if dropped != 0 {
		return nil, fmt.Errorf("experiment: scenario dropped %d packets before the crash", dropped)
	}
	if err := cluster.CrashShard(sc.Victim); err != nil {
		return nil, err
	}

	// Phase 2: a quarter more while the victim is down; its partition of
	// the stream is discarded and counted.
	feed(3 * total / 4)
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
	feed(total)
	if dropped != downDropped {
		return nil, fmt.Errorf("experiment: packets dropped after restore: %d", dropped-downDropped)
	}
	folded := cluster.Packets()
	if folded+dropped != total {
		return nil, fmt.Errorf("experiment: scenario ledger off: folded %d + dropped %d != %d", folded, dropped, total)
	}
	return &ShardScenarioResult{
		DroppedWhileDown: downDropped,
		PacketsFolded:    folded,
		VerdictHash:      verdictDigest(cluster.Verdict()),
		RestoreRoundTrip: true,
	}, nil
}

// macBench times the per-call HMAC path against the precomputed schedule
// on both MAC shapes the sink computes.
func macBench(keys *mac.KeyStore, iters int) MacBenchResult {
	const id = packet.NodeID(7)
	k := keys.Key(id)
	sched := mac.NewSchedule(k)
	data := make([]byte, 80)
	for i := range data {
		data[i] = byte(i)
	}
	report := packet.Report{Event: 0xBEEF, Location: 3, Seq: 9}

	timeOp := func(op func()) float64 {
		//pnmlint:allow wallclock micro-benchmark reports real per-op latency
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		//pnmlint:allow wallclock micro-benchmark reports real per-op latency
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	r := MacBenchResult{
		Iters:           iters,
		ColdSumNs:       timeOp(func() { mac.Sum(k, data) }),
		SchedSumNs:      timeOp(func() { sched.Sum(data) }),
		ColdSumAllocs:   testing.AllocsPerRun(iters, func() { mac.Sum(k, data) }),
		SchedSumAllocs:  testing.AllocsPerRun(iters, func() { sched.Sum(data) }),
		ColdAnonNs:      timeOp(func() { mac.AnonID(k, report, id) }),
		SchedAnonNs:     timeOp(func() { sched.AnonID(report, id) }),
		ColdAnonAllocs:  testing.AllocsPerRun(iters, func() { mac.AnonID(k, report, id) }),
		SchedAnonAllocs: testing.AllocsPerRun(iters, func() { sched.AnonID(report, id) }),
	}
	if r.SchedSumNs > 0 {
		r.SumSpeedup = r.ColdSumNs / r.SchedSumNs
	}
	if r.SchedAnonNs > 0 {
		r.AnonSpeedup = r.ColdAnonNs / r.SchedAnonNs
	}
	return r
}

// tableBench times one full anonymous-ID table build — the
// ExhaustiveResolver's per-report cost over every node — cold versus
// through a warm schedule cache.
func tableBench(keys *mac.KeyStore, topo *topology.Network, builds int) TableBenchResult {
	nodes := topo.Nodes()
	report := packet.Report{Event: 0xC0DE, Location: 1, Seq: 1}
	hasher := keys.Hasher()
	for _, id := range nodes {
		hasher.Schedule(id) // warm the cache outside the timed region
	}

	timeBuilds := func(build func()) float64 {
		//pnmlint:allow wallclock macro-benchmark reports real table-build latency
		start := time.Now()
		for i := 0; i < builds; i++ {
			build()
		}
		//pnmlint:allow wallclock macro-benchmark reports real table-build latency
		return float64(time.Since(start).Nanoseconds()) / float64(builds)
	}
	cold := timeBuilds(func() {
		for _, id := range nodes {
			mac.AnonID(keys.Key(id), report, id)
		}
	})
	warm := timeBuilds(func() {
		for _, id := range nodes {
			hasher.AnonID(id, report)
		}
	})
	r := TableBenchResult{Nodes: len(nodes), Builds: builds, ColdNsPerBuild: cold, WarmNsPerBuild: warm}
	if warm > 0 {
		r.Speedup = cold / warm
	}
	return r
}

// hashResults streams a batch of Results into a row digest, in stream
// order.
func hashResults(h hash.Hash, results []sink.Result) {
	for _, res := range results {
		fmt.Fprintf(h, "%v|%v;", res.Stopped, res.Chain)
	}
}

// finishHash appends the verdict to a row digest and renders it.
func finishHash(h hash.Hash, verdict sink.Verdict) string {
	fmt.Fprintf(h, "verdict:%+v", verdict)
	return hex.EncodeToString(h.Sum(nil))
}

// verdictDigest hashes a verdict alone (no per-packet results).
func verdictDigest(v sink.Verdict) string {
	return finishHash(sha256.New(), v)
}

// RenderJSON serializes a bench result as its committed JSON document.
func RenderJSON(doc any) (string, error) {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
