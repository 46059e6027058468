package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// ScaleBenchConfig parameterizes the multicore-scaling benchmark
// committed as BENCH_scale.json: the keyed-source workload (see
// keyedGen) folded by the serial tracker, the pipeline at each worker
// count and the cluster at each shard width, with wall time and
// allocation columns per configuration. Every row records GOMAXPROCS
// and NumCPU at measurement time, so a 1-core container's rows are
// honest about what they measured: determinism always, speedup only
// when the hardware could deliver one.
type ScaleBenchConfig struct {
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// Hosts is how many distinct deepest nodes the keyed sources cycle
	// through.
	Hosts int `json:"hosts"`
	// Sources is the keyed-source count each configuration folds (one
	// packet per source).
	Sources int `json:"sources"`
	// Workers lists the pipeline worker counts to sweep.
	Workers []int `json:"workers"`
	// Shards lists the cluster widths to sweep.
	Shards []int `json:"shards"`
	// BatchLen is the lockstep generation/fold batch size.
	BatchLen int `json:"batch_len"`
	// Seed drives topology and marking.
	Seed int64 `json:"seed"`
}

// DefaultScaleBench sweeps W1→W8 pipeline workers and 1/2/8 shards over
// the 2k-node keyed workload — the roadmap's "multicore truth" matrix.
func DefaultScaleBench() ScaleBenchConfig {
	return ScaleBenchConfig{
		Nodes:    2048,
		Hosts:    64,
		Sources:  100_000,
		Workers:  []int{1, 2, 4, 8},
		Shards:   []int{1, 2, 8},
		BatchLen: 1024,
		Seed:     17,
	}
}

// ScaleBenchRow is one sink configuration's measurement. Rows must agree
// on VerdictHash, MarksVerified and Stops with the serial baseline —
// enforced at generation time, never committed diverged.
type ScaleBenchRow struct {
	// Mode is "serial", "pipeline" or "cluster".
	Mode string `json:"mode"`
	// Workers is the pipeline worker count (1 otherwise).
	Workers int `json:"workers"`
	// Shards is the cluster width (1 otherwise).
	Shards int `json:"shards"`
	// Sources and Packets count the keyed stream folded.
	Sources int `json:"sources"`
	Packets int `json:"packets"`
	// GOMAXPROCS and NumCPU are recorded per row at measurement time —
	// the row's scaling claim is only meaningful relative to them.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// NsPerPacket is mean observe wall time per packet over the measured
	// region (generation, hashing and the warmup batch are outside it).
	NsPerPacket float64 `json:"ns_per_packet"`
	// BytesPerPacket and AllocsPerPacket are heap allocation per packet
	// over the same region (runtime.MemStats deltas bracketing only the
	// observe calls) — the zero-copy path's load-bearing columns.
	BytesPerPacket  float64 `json:"bytes_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	// VerdictHash digests every per-packet Result in stream order plus
	// the final verdict, from an untimed full pass.
	VerdictHash string `json:"verdict_hash"`
	// MarksVerified and Stops are verdict-visible counters; identical on
	// every row.
	MarksVerified uint64 `json:"marks_verified"`
	Stops         uint64 `json:"stops"`
}

// ScaleBenchResult is the committed BENCH_scale.json document.
type ScaleBenchResult struct {
	Env    BenchEnv         `json:"env"`
	Config ScaleBenchConfig `json:"config"`
	Rows   []ScaleBenchRow  `json:"rows"`
}

// scaleSink adapts one sink configuration (serial, pipeline, cluster) to
// the row runner. observe folds a batch and returns Results valid until
// the next observe call.
type scaleSink struct {
	observe func(batch []packet.Message) []sink.Result
	packets func() int
	verdict func() sink.Verdict
	close   func()
}

// ScaleBench measures every configuration over the identical keyed
// stream. Each row runs two passes: an untimed hashing pass pinning the
// verdict (checked against serial before anything is returned), then a
// fresh-sink measured pass bracketed by MemStats reads so the committed
// B/op and allocs/op columns cover exactly the observe region.
func ScaleBench(cfg ScaleBenchConfig) (*ScaleBenchResult, error) {
	if cfg.BatchLen < 1 || cfg.Sources < 2*cfg.BatchLen || len(cfg.Workers) == 0 || len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("experiment: batch_len, workers, shards and sources >= 2*batch_len must be set")
	}
	topo, err := geometricOfSize(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := mac.NewKeyStore([]byte("scale-bench"))
	gen, err := newKeyedGen(cfg.Nodes, cfg.Hosts, cfg.Seed, topo, keys)
	if err != nil {
		return nil, err
	}

	res := &ScaleBenchResult{Env: CaptureBenchEnv(true), Config: cfg}
	serial, err := runScaleRow(cfg, gen, "serial", 1, 1, func(reg *obs.Registry) scaleSink {
		return newScaleSerial(gen, topo, keys, reg, cfg.BatchLen)
	})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, serial)

	for _, w := range cfg.Workers {
		w := w
		row, err := runScaleRow(cfg, gen, "pipeline", w, 1, func(reg *obs.Registry) scaleSink {
			return newScaleCluster(gen, topo, keys, reg, 1, w)
		})
		if err != nil {
			return nil, err
		}
		if err := checkScaleRow(row, serial); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, shards := range cfg.Shards {
		shards := shards
		row, err := runScaleRow(cfg, gen, "cluster", 1, shards, func(reg *obs.Registry) scaleSink {
			return newScaleCluster(gen, topo, keys, reg, shards, 1)
		})
		if err != nil {
			return nil, err
		}
		if err := checkScaleRow(row, serial); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// checkScaleRow enforces the determinism contract at generation time.
func checkScaleRow(row, serial ScaleBenchRow) error {
	if row.VerdictHash != serial.VerdictHash {
		return fmt.Errorf("experiment: %s workers=%d shards=%d verdict hash %s diverged from serial %s",
			row.Mode, row.Workers, row.Shards, row.VerdictHash, serial.VerdictHash)
	}
	if row.MarksVerified != serial.MarksVerified || row.Stops != serial.Stops {
		return fmt.Errorf("experiment: %s workers=%d shards=%d verdict-visible counters (%d, %d) diverged from serial (%d, %d)",
			row.Mode, row.Workers, row.Shards, row.MarksVerified, row.Stops, serial.MarksVerified, serial.Stops)
	}
	return nil
}

func newScaleSerial(gen *keyedGen, topo *topology.Network, keys *mac.KeyStore, reg *obs.Registry, batchLen int) scaleSink {
	v, err := sink.NewVerifier(gen.scheme, keys, topo.NumNodes(), sink.NewTopologyResolver(keys, topo))
	if err != nil {
		panic(err)
	}
	if ins, ok := v.(sink.Instrumentable); ok {
		ins.Instrument(reg)
	}
	tracker := sink.NewTracker(v, topo)
	tracker.Instrument(reg)
	resBuf := make([]sink.Result, 0, batchLen)
	return scaleSink{
		observe: func(batch []packet.Message) []sink.Result {
			// ObserveKeep with one reset per batch: the caller reads the
			// whole batch's Results together.
			resBuf = resBuf[:0]
			tracker.ResetVerifyScratch()
			for _, m := range batch {
				resBuf = append(resBuf, tracker.ObserveKeep(m))
			}
			return resBuf
		},
		packets: tracker.Packets,
		verdict: tracker.Verdict,
		close:   func() {},
	}
}

// newScaleCluster builds the sink engine at one shape: the "pipeline"
// rows are one shard over workers verifiers, the "cluster" rows shards
// shards.
func newScaleCluster(gen *keyedGen, topo *topology.Network, keys *mac.KeyStore, reg *obs.Registry, shards, workers int) scaleSink {
	cluster := sink.NewCluster(shards, workers, shardVerifierFactory(gen.scheme, keys, topo), topo, reg)
	return scaleSink{
		observe: func(batch []packet.Message) []sink.Result {
			results, dropped := cluster.Observe(batch, nil)
			if dropped > 0 {
				panic(fmt.Sprintf("experiment: cluster dropped %d packets with no shard down", dropped))
			}
			return results
		},
		packets: cluster.Packets,
		verdict: cluster.Verdict,
		close:   cluster.Close,
	}
}

// runScaleRow measures one configuration: pass 1 hashes every Result and
// the verdict over the full stream (untimed); pass 2 rebuilds the sink
// from scratch and times the observe region with MemStats brackets, the
// first batch excluded as warmup (schedule caches, arenas and pipeline
// scratch fill there).
func runScaleRow(cfg ScaleBenchConfig, gen *keyedGen, mode string, workers, shards int, mk func(reg *obs.Registry) scaleSink) (ScaleBenchRow, error) {
	buf := make([]packet.Message, cfg.BatchLen)

	// Pass 1: verdict hash and verdict-visible counters.
	reg := obs.New()
	s := mk(reg)
	digest := sha256.New()
	gen.reset()
	for fed := 0; fed < cfg.Sources; {
		n := min(cfg.BatchLen, cfg.Sources-fed)
		batch := buf[:n]
		gen.batch(batch)
		hashResults(digest, s.observe(batch))
		fed += n
	}
	if got := s.packets(); got != cfg.Sources {
		return ScaleBenchRow{}, fmt.Errorf("experiment: %s workers=%d shards=%d folded %d of %d packets",
			mode, workers, shards, got, cfg.Sources)
	}
	row := ScaleBenchRow{
		Mode: mode, Workers: workers, Shards: shards,
		Sources: cfg.Sources, Packets: s.packets(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		VerdictHash:   finishHash(digest, s.verdict()),
		MarksVerified: reg.Counter("sink.verify.marks_verified").Value(),
		Stops:         reg.Counter("sink.verify.stops").Value(),
	}
	s.close()

	// Pass 2: fresh sink, measured. The MemStats brackets sit outside the
	// timer, so their stop-the-world reads never inflate NsPerPacket, and
	// generation/hashing never show up in the allocation columns.
	s2 := mk(obs.New())
	gen.reset()
	var spent time.Duration
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	measured := 0
	warmed := false
	for fed := 0; fed < cfg.Sources; {
		n := min(cfg.BatchLen, cfg.Sources-fed)
		batch := buf[:n]
		gen.batch(batch)
		if !warmed {
			s2.observe(batch)
			warmed = true
		} else {
			runtime.ReadMemStats(&m0)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			start := time.Now()
			s2.observe(batch)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			spent += time.Since(start)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			measured += n
		}
		fed += n
	}
	s2.close()
	row.NsPerPacket = float64(spent.Nanoseconds()) / float64(measured)
	row.BytesPerPacket = float64(bytes) / float64(measured)
	row.AllocsPerPacket = float64(mallocs) / float64(measured)
	return row, nil
}

// RenderScaleBench serializes the result as the committed JSON document.
func RenderScaleBench(res *ScaleBenchResult) (string, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
