package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/sink"
	"pnm/internal/topology"
	"pnm/internal/transport"
)

// Span kinds: one per layer boundary the traced replay crosses.
const (
	kindDecode  = iota // transport.FrameReader.Next
	kindVerify         // NestedVerifier.VerifyAt
	kindResolve        // sink.Resolver.Resolve, inside VerifyAt
	kindYield          // the candidate-MAC check, inside Resolve
	kindFold           // Tracker.Fold
	kindVerdict        // Tracker.Verdict
	kindCluster        // Cluster.Verdict
	numKinds
)

var kindNames = [numKinds]string{"decode", "verify", "resolve", "candidate_mac", "fold", "verdict", "cluster_verdict"}

// span is one timed call. Spans of one packet share id (the packet's
// index in the stream); parent indexes the enclosing span or is -1.
type span struct {
	id         int32
	parent     int32
	kind       uint8
	start, end int64
}

// tracer keeps spans in memory for the length of the replay. It is
// single-goroutine, like everything it wraps.
type tracer struct {
	base  time.Time
	spans []span
	open  int32 // innermost open span, -1 at top level
	id    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

func (t *tracer) begin(kind uint8) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: t.id, parent: t.open, kind: kind, start: int64(time.Since(t.base))})
	t.open = i
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.base))
	t.open = t.spans[i].parent
}

// layerTimes is the trace folded by kind: total and self time (the span
// minus its children) and the number of spans.
type layerTimes struct {
	total, self [numKinds]int64
	count       [numKinds]int64
}

func (t *tracer) fold() *layerTimes {
	lt := &layerTimes{}
	for _, s := range t.spans {
		d := s.end - s.start
		lt.total[s.kind] += d
		lt.self[s.kind] += d
		lt.count[s.kind]++
		if s.parent >= 0 {
			lt.self[t.spans[s.parent].kind] -= d
		}
	}
	return lt
}

// tracedResolver wraps the resolver handed to sink.NewVerifier so that
// time inside Resolve splits into the resolver's own search and the
// verifier's candidate-MAC callback.
type tracedResolver struct {
	inner sink.Resolver
	t     *tracer
	// yield is the verifier's callback for the Resolve in progress;
	// yieldFn is r.wrapYield bound once, so resolving allocates no
	// closure per mark.
	yield   func(packet.NodeID) bool
	yieldFn func(packet.NodeID) bool
	// lastEpoch and firstResolve record the duration of the first
	// resolution under each epoch the replay reaches.
	lastEpoch    topology.EpochVersion
	resolved     bool
	firstResolve []int64
}

func newTracedResolver(inner sink.Resolver, t *tracer) *tracedResolver {
	r := &tracedResolver{inner: inner, t: t}
	r.yieldFn = r.wrapYield
	return r
}

// Instrument forwards to the wrapped resolver, so the verifier's
// Instrument still reaches it.
func (r *tracedResolver) Instrument(reg *obs.Registry) {
	if in, ok := r.inner.(sink.Instrumentable); ok {
		in.Instrument(reg)
	}
}

func (r *tracedResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	first := !r.resolved || epoch != r.lastEpoch
	r.resolved, r.lastEpoch = true, epoch
	r.yield = yield
	i := r.t.begin(kindResolve)
	r.inner.Resolve(report, anon, prev, havePrev, epoch, r.yieldFn)
	r.t.end(i)
	if first {
		s := r.t.spans[i]
		r.firstResolve = append(r.firstResolve, s.end-s.start)
	}
}

func (r *tracedResolver) wrapYield(id packet.NodeID) bool {
	i := r.t.begin(kindYield)
	ok := r.yield(id)
	r.t.end(i)
	return ok
}

// replayResult is one serial replay of the delivered frames.
type replayResult struct {
	verdict    sink.Verdict
	candidates []packet.NodeID
	seen       int
	elapsed    time.Duration
	packets    int
	reg        *obs.Registry
	// Traced replays only.
	layers       *layerTimes
	firstResolve []int64
	verdictNs    []int64
	clusterNs    []int64
	// clusterWall is the replay's time spent feeding, rebuilding and
	// querying the cluster, which is not the serial sink's work.
	clusterWall time.Duration
	// clusterVerdict and clusterCandidates are the last Cluster answers.
	clusterVerdict    sink.Verdict
	clusterCandidates []packet.NodeID
}

// clusterEvery samples Cluster.Verdict at one poll in that many: each
// sample rebuilds a cluster from shard checkpoints, which costs more
// than the verdict it times.
const clusterEvery = 8

// replay decodes the delivered frames on one goroutine and folds them
// into a serial sink.Tracker, polling its verdict where the timed run
// polled. It is the correctness reference for the server's verdict.
// With traced set, spans wrap every layer call and the verdicts of a
// sink.Cluster over the same chains are timed too.
func replay(sc *scenario, frames []byte, epochs []topology.EpochVersion, traced bool) (*replayResult, error) {
	cfg := sc.cfg
	out := &replayResult{reg: obs.New()}
	var t *tracer
	var tr *tracedResolver
	var v sink.Verifier
	if traced {
		t = newTracer(len(epochs) * 10)
		v = sc.verifierWith(func(r sink.Resolver) sink.Resolver {
			tr = newTracedResolver(r, t)
			return tr
		})
	} else {
		v = sc.newVerifier()
	}
	nv, ok := v.(*sink.NestedVerifier)
	if !ok {
		return nil, fmt.Errorf("verifier is %T, not nested", v)
	}
	nv.Instrument(out.reg)
	tracker := sink.NewTracker(nil, sc.topo())

	// Shard trackers fold the same chains partitioned by sink.ShardOf;
	// a cluster restored from their checkpoints answers Cluster.Verdict
	// exactly as the server's cluster would.
	var shardTr []*sink.Tracker
	if traced {
		for i := 0; i < shards; i++ {
			shardTr = append(shardTr, sink.NewTracker(nil, sc.topo()))
		}
	}
	clusterVerdict := func(reps int) error {
		defer func(t0 time.Time) { out.clusterWall += time.Since(t0) }(time.Now())
		blobs := make([][]byte, shards)
		for i, st := range shardTr {
			blobs[i] = st.Checkpoint()
		}
		cl, err := sink.RestoreCluster(blobs, sc.newVerifier, sc.topo(), nil)
		if err != nil {
			return err
		}
		defer cl.Close()
		for k := 0; k < reps; k++ {
			i := t.begin(kindCluster)
			out.clusterVerdict = cl.Verdict()
			t.end(i)
			s := t.spans[i]
			out.clusterNs = append(out.clusterNs, s.end-s.start)
		}
		out.clusterCandidates = cl.Candidates()
		return nil
	}
	serialVerdict := func(reps int) {
		for k := 0; k < reps; k++ {
			var i int32
			if traced {
				i = t.begin(kindVerdict)
			}
			out.verdict = tracker.Verdict()
			if traced {
				t.end(i)
				s := t.spans[i]
				out.verdictNs = append(out.verdictNs, s.end-s.start)
			}
		}
	}

	fr := transport.NewFrameReader(bytes.NewReader(frames), transport.Limits{})
	var msg packet.Message
	polls := 0
	start := time.Now()
	for p := 0; ; p++ {
		var i int32
		if traced {
			t.id = int32(p)
			i = t.begin(kindDecode)
		}
		err := fr.Next(&msg)
		if err == io.EOF {
			if traced {
				// The end of the stream is not a frame.
				t.open = t.spans[i].parent
				t.spans = t.spans[:i]
			}
			break
		}
		if traced {
			t.end(i)
		}
		if err != nil {
			return nil, fmt.Errorf("replay frame %d: %w", p, err)
		}
		if p >= len(epochs) {
			return nil, fmt.Errorf("replay: more frames than recorded epochs")
		}
		nv.ResetVerifyScratch()
		if traced {
			i = t.begin(kindVerify)
		}
		res := nv.VerifyAt(msg, epochs[p])
		if traced {
			t.end(i)
			i = t.begin(kindFold)
		}
		tracker.Fold(res)
		if traced {
			t.end(i)
			t0 := time.Now()
			shardTr[sink.ShardOf(msg.Report, shards)].Fold(res)
			out.clusterWall += time.Since(t0)
		}
		out.packets++
		if cfg.PollEvery > 0 && out.packets%cfg.PollEvery == 0 {
			serialVerdict(1)
			if traced && polls%clusterEvery == 0 {
				if err := clusterVerdict(1); err != nil {
					return nil, err
				}
			}
			polls++
		}
	}
	out.elapsed = time.Since(start)
	if out.packets != len(epochs) {
		return nil, fmt.Errorf("replay decoded %d of %d frames", out.packets, len(epochs))
	}
	if traced && cfg.PollEvery == 0 {
		// Unpolled workloads time the verdicts on the settled state, as
		// the timed run does.
		serialVerdict(21)
		if err := clusterVerdict(21); err != nil {
			return nil, err
		}
	}
	out.verdict = tracker.Verdict()
	out.candidates = tracker.Candidates()
	out.seen = tracker.Order().SeenCount()
	if traced {
		out.layers = t.fold()
		out.firstResolve = tr.firstResolve
	}
	return out, nil
}

// encodeFrames frames the messages as the client writes them.
func encodeFrames(msgs []packet.Message) []byte {
	var buf []byte
	for _, m := range msgs {
		buf = transport.AppendFrame(buf, m)
	}
	return buf
}

// localize counts packets folded before the verdict first names a
// neighborhood containing the mole and keeps naming one, polled after
// every packet. The traffic is a lone source mole at the field's
// deepest node, forwarded honestly under the workload's marking
// probability and rewires, so the count means the same on every
// workload. Replicas
// are drawn independently from the seed; the result is their mean,
// with a replica that never localizes counted as one past its length,
// and how many did not.
func localize(sc *scenario, seed int64) (float64, int) {
	cfg := sc.cfg
	keys := mac.NewKeyStore(sc.master)
	lone := sc.topo().DeepestNode()
	// Replicas are independent, each with its own tracker chain, so they
	// run on every CPU; the timed run is over by now.
	counts := parallel.RunN(cfg.LocalizeReplicas, 0, func(r int) int {
		rs := seed*7919 + int64(r) + 1
		// Each replica draws its own rewires into a private, fully
		// advanced epoch history: how a lone mole's route churns decides
		// how soon it is caught, so one draw per seed would not average.
		loc := *sc
		loc.keys = keys
		loc.rewire(rs)
		if loc.epochs != nil {
			for _, n := range loc.nets[1:] {
				loc.epochs.Advance(n)
			}
		}
		st := record(&loc, rs, cfg.LocalizePackets, cfg.LocalizePackets, lone)
		tracker := sink.NewTracker(loc.newVerifier(), loc.topo())
		lastMiss := -1
		for i, m := range st.msgs {
			tracker.ObserveAt(m, st.epochs[i])
			if v := tracker.Verdict(); !v.HasStop || !v.SuspectsContain(lone) {
				lastMiss = i
			}
		}
		return lastMiss + 2
	})
	sum, missed := 0, 0
	for _, c := range counts {
		sum += c
		if c > cfg.LocalizePackets {
			missed++
		}
	}
	return float64(sum) / float64(len(counts)), missed
}
