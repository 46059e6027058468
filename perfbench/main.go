// Command perfbench is the repository benchmark: it sets up the PNM sink
// behind transport.Listen, sends one workload's recorded traffic over a
// loopback TCP connection, checks the verdict against a serial in-process
// fold of the same frames, and prints every metric with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload keyed-deep --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of the timed run; --trace 1
// also replays the delivered frames on one goroutine with spans around
// each layer call and reports the per-layer metrics. A failed
// correctness check exits non-zero without printing a result.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"pnm/internal/loadgen"
	"pnm/internal/packet"
	"pnm/internal/sink"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 9

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errGate marks a failed correctness check.
var errGate = errors.New("correctness gate failed")

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: keyed-deep or multi-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured run length")
	trace := fs.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	// Nothing reaches standard output unless the run passes its gate.
	var out bytes.Buffer
	res, err := measure(cfg, *seed, *seconds, *trace == 1, &out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(&out, "%s\n", line)
	_, err = out.WriteTo(w)
	return err
}

// measure runs one workload end to end and returns its result. Lines
// before the result carry provenance, every metric by name and unit,
// and the diagnostics that explain them.
func measure(cfg config, seed int64, seconds float64, traced bool, w io.Writer) (*result, error) {
	info := func(format string, a ...any) { fmt.Fprintf(w, "# "+format+"\n", a...) }
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	info("provenance gomaxprocs=%d num_cpu=%d go=%s seed=%d seconds=%g trace=%v",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), seed, seconds, traced)
	info("workload %s shards=%d cap_pps=%d", cfgJSON, shards, capPPS)

	// Set up several times and keep the last server; the idle heap of
	// the kept one is the base of heap_mb.
	var setupS, topoS, listenS []float64
	var s *server
	var serverIdle uint64
	for k := 0; k < setupReps; k++ {
		h0 := liveHeap()
		t0 := time.Now()
		s, err = setUp(cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		topoS = append(topoS, s.topoS)
		listenS = append(listenS, s.listenS)
		if k < setupReps-1 {
			s.srv.Close()
			continue
		}
		serverIdle = liveHeap() - h0
	}
	defer s.srv.Close()

	n := int(capPPS*seconds) + 1
	st := record(s.sc, seed, n, (cfg.Epochs+1)*cfg.ChurnEvery, 0)
	tm, err := runTimed(s, st, seconds, serverIdle)
	if err != nil {
		return nil, fmt.Errorf("timed run: %w", err)
	}
	s.srv.Close()
	serverVerdict := s.srv.Verdict()

	frames := encodeFrames(st.msgs[:tm.delivered])
	epochs := st.epochs[:tm.delivered]
	ref, err := replay(s.sc, frames, epochs, false)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	var tr *replayResult
	if traced {
		if tr, err = replay(s.sc, frames, epochs, true); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}

	failed := tm.sent - tm.delivered + int(tm.decodeRejects)
	info("sent=%d delivered=%d decode_rejects=%d failed_share=%g epochs_applied=%d/%d",
		tm.sent, tm.delivered, tm.decodeRejects, float64(failed)/float64(tm.sent), tm.epochsApplied, cfg.Epochs)
	if err := gate(s, tm, serverVerdict, ref, tr); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: tm.sent, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(w, "metric %s %.6g %s\n", name, v, unit)
	}
	info("throughput per window %.0f", tm.windowPPS)
	info("latency samples=%d in %d windows: p99 %.4gms (median over windows), whole-run p50=%.4gms p99=%.4gms; verdict samples=%d",
		len(tm.latencyMs), len(tm.windowPPS), tm.p99Ms, pct(tm.latencyMs, 50), pct(tm.latencyMs, 99), len(tm.verdictMs))
	info("replay untraced: %d packets in %v = %.1f pkt/s (timed loopback run: %.1f pkt/s)",
		ref.packets, ref.elapsed, float64(ref.packets)/ref.elapsed.Seconds(), tm.throughputPPS)

	if !traced {
		loc, missed := localize(s.sc, seed)
		info("localize replicas=%d mean=%g not_localized=%d (counted as %d)",
			cfg.LocalizeReplicas, loc, missed, cfg.LocalizePackets+1)
		put("throughput_pps", tm.throughputPPS, "1/s")
		put("verdict_query_ms", median(tm.verdictMs), "ms")
		put("localize_packets", loc, "packets")
		put("setup_s", median(setupS), "s")
		put("heap_mb", tm.heapBytes/(1<<20), "MB")
		return res, nil
	}

	untracedPPS := float64(ref.packets) / ref.elapsed.Seconds()
	tracedPPS := float64(tr.packets) / (tr.elapsed - tr.clusterWall).Seconds()
	info("tracing overhead: untraced replay %.1f pkt/s, traced replay %.1f pkt/s, traced/untraced %.3f",
		untracedPPS, tracedPPS, tracedPPS/untracedPPS)
	lt := tr.layers
	visits := float64(tr.reg.Counter("sink.resolver.probes").Value())
	marks := float64(tr.reg.Histogram("sink.verify.probes_per_mark").Count())
	candidates := float64(tr.reg.Histogram("sink.verify.probes_per_mark").Sum())
	packets := float64(tr.packets)
	per := func(total int64, count float64) float64 {
		if count == 0 {
			return 0
		}
		return float64(total) / count
	}
	resolveSelfNs := lt.self[kindResolve]
	// Sink time is what the server spends on the delivered stream: the
	// per-packet layers plus the verdicts the operator read, one per poll
	// (one in all when unpolled) at the median cost of the server's
	// sharded sink.
	reads := 1.0
	if cfg.PollEvery > 0 {
		reads = float64(tr.packets / cfg.PollEvery)
	}
	verdictNs := medianInt(tr.clusterNs)
	verdictWork := reads * verdictNs
	sinkNs := float64(lt.total[kindDecode]+lt.total[kindVerify]+lt.total[kindFold]) + verdictWork
	for _, k := range []int{kindDecode, kindVerify, kindResolve, kindYield, kindFold} {
		info("layer %-13s spans=%-8d self=%.4gms (%.4g ns/packet) share_of_sink=%.4f",
			kindNames[k], lt.count[k], float64(lt.self[k])/1e6, float64(lt.self[k])/packets,
			float64(lt.self[k])/sinkNs)
	}
	info("layer %-13s reads=%-8g each=%.4gns share_of_sink=%.4f", "verdict", reads, verdictNs, verdictWork/sinkNs)
	info("share resolve_self+candidate_mac=%.4f verdict=%.4f decode=%.5f",
		float64(resolveSelfNs+lt.total[kindYield])/sinkNs, verdictWork/sinkNs, float64(lt.total[kindDecode])/sinkNs)

	info("probe counts: %g HMAC node visits (sink.resolver.probes) and %g MAC-checked candidates (sink.verify.probes_per_mark) over %g anonymous marks",
		visits, candidates, marks)

	put("sink.resolve.self_ns", per(resolveSelfNs, marks), "ns")
	put("sink.resolve.visits_per_mark", visits/max(marks, 1), "count")
	put("mac.anonid_ns", per(resolveSelfNs, visits), "ns")
	put("sink.verify.candidate_mac_ns", per(lt.total[kindYield], float64(lt.count[kindYield])), "ns")
	put("sink.verify.candidates_per_mark", candidates/max(marks, 1), "count")
	put("sink.verify.stop_share", float64(tr.reg.Counter("sink.verify.stops").Value())/packets, "share")
	put("transport.decode_ns", per(lt.total[kindDecode], float64(lt.count[kindDecode])), "ns")
	put("transport.batch_len", tm.batchLen, "count")
	// Latency is the timed run's, tracing off. It is reported with the
	// layer metrics because it has no bound: on keyed-deep it is about
	// the in-flight window over throughput, on multi-churn mostly the
	// goroutine wake-ups of a batch round trip, and both move with stalls
	// of the host more than with the server.
	put("latency_p50_ms", tm.p50Ms, "ms")
	put("latency_p99_ms", tm.p99Ms, "ms")
	put("sink.order.fold_ns", per(lt.total[kindFold], float64(lt.count[kindFold])), "ns")
	put("sink.order.seen", float64(tr.seen), "count")
	put("sink.verdict_ns", medianInt(tr.verdictNs), "ns")
	put("sink.cluster.verdict_ns", medianInt(tr.clusterNs), "ns")
	put("sink.cluster.shard_skew", shardSkew(st.msgs[:tm.delivered], shards), "ratio")
	put("topology.epoch.first_resolve_ns", medianInt(tr.firstResolve), "ns")
	put("setup.topology_s", median(topoS), "s")
	put("setup.listen_s", median(listenS), "s")
	return res, nil
}

// gate is the correctness check of every run: nothing lost or rejected,
// every rewire of the workload applied, and the server's final verdict
// equal to the serial reference fold of the same delivered frames,
// counter for counter.
func gate(s *server, tm *timing, serverVerdict sink.Verdict, ref, tr *replayResult) error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{errGate}, a...)...)
	}
	if tm.delivered != tm.sent {
		return fail("delivered %d of %d sent under queue.Block", tm.delivered, tm.sent)
	}
	if tm.decodeRejects != 0 {
		return fail("%d frames rejected by the decoder", tm.decodeRejects)
	}
	if tm.epochsApplied != s.sc.cfg.Epochs {
		return fail("%d of %d rewires applied before the run ended", tm.epochsApplied, s.sc.cfg.Epochs)
	}
	want := loadgen.FormatVerdict(ref.verdict)
	if got := loadgen.FormatVerdict(serverVerdict); got != want {
		return fail("server %s, serial reference %s", got, want)
	}
	for _, name := range []string{"sink.verify.packets", "sink.verify.marks_verified", "sink.verify.stops", "sink.resolver.probes"} {
		if got, want := s.reg.Counter(name).Value(), ref.reg.Counter(name).Value(); got != want {
			return fail("server %s=%d, serial reference %d", name, got, want)
		}
	}
	if tr == nil {
		return nil
	}
	if got := loadgen.FormatVerdict(tr.verdict); got != want {
		return fail("traced replay %s, untraced %s", got, want)
	}
	if got := loadgen.FormatVerdict(tr.clusterVerdict); got != want {
		return fail("cluster %s, serial %s", got, want)
	}
	if fmt.Sprint(tr.clusterCandidates) != fmt.Sprint(tr.candidates) || fmt.Sprint(ref.candidates) != fmt.Sprint(tr.candidates) {
		return fail("candidates: cluster %v, serial %v", tr.clusterCandidates, ref.candidates)
	}
	return nil
}

// shardSkew is the busiest shard's packet count over the mean, for the
// partition sink.ShardOf makes of the delivered stream.
func shardSkew(msgs []packet.Message, shards int) float64 {
	counts := make([]float64, shards)
	for _, m := range msgs {
		counts[sink.ShardOf(m.Report, shards)]++
	}
	sort.Float64s(counts)
	return counts[shards-1] / (float64(len(msgs)) / float64(shards))
}

// pct is the p-th percentile of sorted values, nearest rank.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}
