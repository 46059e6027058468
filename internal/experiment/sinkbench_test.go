package experiment

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// testSinkBenchConfig shrinks DefaultSinkBench so it runs in well under a
// second while keeping the interleaving structure intact.
func testSinkBenchConfig() SinkBenchConfig {
	cfg := DefaultSinkBench()
	cfg.Nodes, cfg.Seed = 128, 5
	cfg.Reports, cfg.Repeats, cfg.SourceSweep = 3, 4, []int{4}
	cfg.Shapes = []EngineShape{{1, 1}, {1, 2}}
	cfg.BatchLen, cfg.MacIters = 16, 256
	return cfg
}

// testScaleBenchConfig shrinks DefaultScaleBench to two small sweep
// points, one shape of each kind and a small crash/restore scenario.
func testScaleBenchConfig() SinkBenchConfig {
	cfg := DefaultScaleBench()
	cfg.Nodes, cfg.Hosts = 96, 8
	cfg.SourceSweep = []int{300, 900}
	cfg.Shapes = []EngineShape{{1, 1}, {1, 2}, {2, 1}}
	cfg.BatchLen = 64
	cfg.Scenario = &ShardScenarioConfig{Sources: 600, Shards: 4, Victim: 1}
	return cfg
}

// TestSinkBenchSmall checks the interleaved document: every resolver at
// every shape hashes to the same verdict (the generator enforces it), the
// generation-time gate rejects a diverged row, and the schedule paths are
// allocation-free and faster than the cold path.
func TestSinkBenchSmall(t *testing.T) {
	cfg := testSinkBenchConfig()
	res, err := SinkBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perResolver := 1 + len(cfg.Shapes)
	if want := len(cfg.Resolvers) * perResolver; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	wantPackets := cfg.SourceSweep[0] * cfg.Reports * cfg.Repeats
	serial := map[string]SinkBenchRow{}
	for i, row := range res.Rows {
		if row.Packets != wantPackets {
			t.Fatalf("%s %s: packets = %d, want %d", row.Resolver, row.Mode, row.Packets, wantPackets)
		}
		if row.VerdictHash != res.Rows[0].VerdictHash {
			t.Fatalf("%s %s: verdict hash diverged (generator should have errored)", row.Resolver, row.Mode)
		}
		if i%perResolver == 0 {
			if row.Mode != "serial" {
				t.Fatalf("row %d mode %q, want serial", i, row.Mode)
			}
			serial[row.Resolver] = row
		}
	}
	single, topoRow := serial[ResolverExhaustiveSingle], serial[ResolverTopology]
	if single.MarksVerified == 0 {
		t.Fatal("no marks verified — degenerate workload")
	}
	// The generation-time gate rejects a row diverging on any
	// verdict-visible column.
	for _, diverge := range []func(*SinkBenchRow){
		func(r *SinkBenchRow) { r.VerdictHash = "x" },
		func(r *SinkBenchRow) { r.MarksVerified++ },
		func(r *SinkBenchRow) { r.Stops++ },
	} {
		row := topoRow
		diverge(&row)
		if row.matches(single) == nil {
			t.Fatalf("diverged row %+v accepted", row)
		}
	}

	if res.Mac.SchedSumAllocs != 0 || res.Mac.SchedAnonAllocs != 0 {
		t.Errorf("schedule paths allocate: Sum %.1f, AnonID %.1f allocs/op",
			res.Mac.SchedSumAllocs, res.Mac.SchedAnonAllocs)
	}
	if res.Mac.SumSpeedup <= 1 || res.Mac.AnonSpeedup <= 1 {
		t.Errorf("schedule slower than cold path: Sum %.2fx, AnonID %.2fx",
			res.Mac.SumSpeedup, res.Mac.AnonSpeedup)
	}
	if res.Table.Speedup <= 1 {
		t.Errorf("warm table build slower than cold: %.2fx", res.Table.Speedup)
	}
}

// TestResolverBenchStructure checks the resolver rows of the interleaved
// document: the LRU removes the per-packet rebuilds the single-entry
// cache pays, all three resolvers verify the stream identically, and the
// topology resolver records its visits.
func TestResolverBenchStructure(t *testing.T) {
	cfg := testSinkBenchConfig()
	res, err := SinkBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := map[string]SinkBenchRow{}
	for _, row := range res.Rows {
		if row.Mode == "serial" {
			serial[row.Resolver] = row
		}
	}
	single, okS := serial[ResolverExhaustiveSingle]
	lru, okL := serial[ResolverExhaustiveLRU]
	topoRow, okT := serial[ResolverTopology]
	if !okS || !okL || !okT {
		t.Fatalf("missing serial resolver rows: %v", res.Rows)
	}

	// The LRU holds every live report, so it builds each marked report's
	// table once; the interleaved stream defeats the single-entry cache,
	// which rebuilds on every retransmission. (Packets PNM left unmarked
	// never consult the resolver, so the unit is marked reports.)
	distinct := uint64(cfg.SourceSweep[0] * cfg.Reports)
	if lru.TableBuilds == 0 || lru.TableBuilds > distinct {
		t.Fatalf("lru table builds = %d, want one per distinct marked report (<= %d)", lru.TableBuilds, distinct)
	}
	if want := lru.TableBuilds * uint64(cfg.Repeats); single.TableBuilds != want {
		t.Fatalf("single-entry table builds = %d, want %d (every retransmission rebuilds)", single.TableBuilds, want)
	}
	if lru.CacheHitRate <= single.CacheHitRate {
		t.Fatalf("lru hit rate %.3f not above single-entry %.3f", lru.CacheHitRate, single.CacheHitRate)
	}

	// All three resolvers verify the same stream identically.
	if single.MarksVerified == 0 {
		t.Fatal("no marks verified — degenerate workload")
	}
	for _, r := range []SinkBenchRow{lru, topoRow} {
		if r.MarksVerified != single.MarksVerified || r.Stops != single.Stops {
			t.Fatalf("%s verified %d/%d, baseline %d/%d — resolvers diverged",
				r.Resolver, r.MarksVerified, r.Stops, single.MarksVerified, single.Stops)
		}
	}
	if topoRow.ResolverVisits == 0 || topoRow.VisitsPerMark <= 0 || topoRow.CandidatesPerMark <= 0 {
		t.Fatalf("topology row missing visit counters: %+v", topoRow)
	}
}

// TestRenderResolverBenchIsValidJSON round-trips the rendered interleaved
// document through JSON.
func TestRenderResolverBenchIsValidJSON(t *testing.T) {
	res, err := SinkBench(testSinkBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := RenderJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SinkBenchResult
	if err := json.Unmarshal([]byte(doc), &back); err != nil {
		t.Fatalf("rendered document is not valid JSON: %v", err)
	}
	if again, err := RenderJSON(&back); err != nil || again != doc {
		t.Fatalf("document did not round-trip (err %v)", err)
	}
}

// TestScaleBenchSmall checks the keyed document: per-row provenance, one
// packet per source at every row, and an allocation-free serial steady
// state.
func TestScaleBenchSmall(t *testing.T) {
	cfg := testScaleBenchConfig()
	res, err := SinkBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := 1 + len(cfg.Shapes)
	if want := len(cfg.SourceSweep) * perPoint; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if res.Env.GOMAXPROCS != runtime.GOMAXPROCS(0) || res.Env.NumCPU != runtime.NumCPU() || !res.Env.Benchmem {
		t.Fatalf("env provenance off: %+v", res.Env)
	}
	for _, row := range res.Rows {
		if row.Packets != row.Sources {
			t.Fatalf("row %s %d/%d@%d folded %d packets", row.Mode, row.Shards, row.Workers, row.Sources, row.Packets)
		}
		if row.GOMAXPROCS != runtime.GOMAXPROCS(0) || row.NumCPU != runtime.NumCPU() {
			t.Fatalf("row %s %d/%d lacks honest provenance: %+v", row.Mode, row.Shards, row.Workers, row)
		}
		if row.NsPerPacket <= 0 || row.AllocsPerPacket < 0 || row.BytesPerPacket < 0 {
			t.Fatalf("row %s %d/%d has bad measurement columns: %+v", row.Mode, row.Shards, row.Workers, row)
		}
	}
	// The serial verify path is the zero-copy claim's anchor: after the
	// warm-up batch it must run allocation-free per packet (sub-1 means
	// only stray background allocation, not per-packet work).
	for _, i := range []int{0, perPoint} {
		if serial := res.Rows[i]; serial.Mode != "serial" || serial.AllocsPerPacket >= 1 {
			t.Fatalf("serial row %d: mode %q, %.2f allocs/packet at steady state, want < 1", i, serial.Mode, serial.AllocsPerPacket)
		}
	}
}

// TestShardBenchSmall checks the keyed document's sharding claims:
// distinct sweep points hash differently, the crash/restore scenario's
// ledger balances and its restore round-trips losslessly, and the
// rendered document carries both modes and the round-trip flag.
func TestShardBenchSmall(t *testing.T) {
	cfg := testScaleBenchConfig()
	res, err := SinkBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := 1 + len(cfg.Shapes)
	if want := len(cfg.SourceSweep) * perPoint; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	// Distinct sweep points fold distinct streams: their hashes differ.
	if res.Rows[0].VerdictHash == res.Rows[perPoint].VerdictHash {
		t.Fatal("sweep points share a verdict hash — stream not keyed by source count")
	}

	sc := res.Scenario
	if !sc.RestoreRoundTrip {
		t.Fatal("scenario restore round trip not verified")
	}
	if sc.DroppedWhileDown == 0 || sc.PacketsFolded+sc.DroppedWhileDown != cfg.Scenario.Sources {
		t.Fatalf("scenario ledger off: folded %d + dropped %d != %d",
			sc.PacketsFolded, sc.DroppedWhileDown, cfg.Scenario.Sources)
	}

	out, err := RenderJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"mode": "serial"`, `"mode": "cluster"`, `"restore_round_trip": true`} {
		if !strings.Contains(out, key) {
			t.Fatalf("rendered document missing %s:\n%s", key, out)
		}
	}
}

// TestSinkBenchDeterministic runs both small documents twice and requires
// them equal once the wall-time and allocation columns and the
// schedule-cache locality counters are zeroed: everything else —
// hashes, resolver and verification counters, the scenario — is a pure
// function of the config.
func TestSinkBenchDeterministic(t *testing.T) {
	for _, cfg := range []SinkBenchConfig{testSinkBenchConfig(), testScaleBenchConfig()} {
		var docs [2]string
		for i := range docs {
			res, err := SinkBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			zeroMeasured(res)
			if docs[i], err = RenderJSON(res); err != nil {
				t.Fatal(err)
			}
		}
		if docs[0] != docs[1] {
			t.Fatalf("%s document not deterministic:\n%s\n---\n%s", cfg.Stream, docs[0], docs[1])
		}
	}
}

// zeroMeasured clears every column that legitimately varies run to run.
func zeroMeasured(res *SinkBenchResult) {
	for i := range res.Rows {
		r := &res.Rows[i]
		r.NsPerPacket, r.BytesPerPacket, r.AllocsPerPacket = 0, 0, 0
		r.ScheduleHits, r.ScheduleMisses = 0, 0
	}
	if res.Mac != nil {
		*res.Mac = MacBenchResult{Iters: res.Mac.Iters}
	}
	if res.Table != nil {
		*res.Table = TableBenchResult{Nodes: res.Table.Nodes, Builds: res.Table.Builds}
	}
}
