package sink

import (
	"errors"
	"fmt"
	"sync"

	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/topology"
)

// Cluster is the sink engine: the one place that decides how the sink's
// verification is spread over cores. Mark verification is pure per
// packet (a Result depends only on the packet's bytes and the key
// material), so it spreads freely; the order fold is where arrival order
// matters. Every sink mode is a shape of this engine:
//
//   - serial is 1 shard × 1 worker;
//   - shards > 1 partitions each batch by source identity (ShardOf) and
//     verifies and folds each shard's sub-batch on the worker that owns
//     the shard. Each shard has a fully private verifier chain, resolver
//     cache and Tracker, so shards never contend and each shard's
//     resolver cache stays hot on its own sources' reports;
//   - 1 shard × W workers verifies the batch across W worker-owned
//     verifier chains, then folds every Result into the one shard in
//     arrival order.
//
// Shards supersede workers: with shards > 1 the shards are the
// parallelism.
//
// Ownership: every worker's state is built inside its own goroutine and
// only ever touched from it. Observe, the reads, Checkpoint and the
// crash/restore operations all reach shard i through the worker that
// owns it, never from the caller. The caller and the workers exchange
// data only through the disjoint slots a parallel.Pool round hands over.
//
// Determinism contract: the cluster's order matrix is the transitive
// closure of the union of the per-shard relations. Closure is a pure
// function of the relation set, every verdict input is derived from it
// order-independently (sorted minimals, sorted loops, smallest-ID
// tie-breaks), and the partition is a pure function of each packet's
// report. So verdicts, per-packet Results and the verdict-visible obs
// counters are byte-identical at any shard or worker count, and identical
// to a single Tracker fed the same stream.
//
// pnmlint:single-goroutine — the round slots are unsynchronized; one
// goroutine owns the Cluster for its lifetime, like the Tracker it wraps.
type Cluster struct {
	pool    *parallel.Pool[*clusterWorker]
	shards  int
	workers int
	factory func() Verifier
	topo    *topology.Network
	reg     *obs.Registry

	// The caller's view of each shard, refreshed by every round that
	// changes it: whether the shard is crashed (its worker then holds the
	// at-crash blob), and its packet and identity counts — the at-crash
	// ones while it is down. Packets and the verdict fast path read them
	// without a round.
	down   []bool
	counts []int
	seen   []int

	// Per-shard round slots, reused across calls: sub-batches, their
	// arrival epochs, the batch positions for scattering Results back,
	// the per-shard Results, the shards a crash or restore acts on and
	// the restore errors. Slot i is written either by worker i or by the
	// caller, never concurrently; the pool round's hand-off orders the
	// two.
	groups  [][]packet.Message
	gEpochs [][]topology.EpochVersion
	at      [][]int
	perRes  [][]Result
	picked  []bool
	errs    []error
	scratch []Result

	// round numbers the Observe calls, so each worker recycles its
	// verifier's chain arena exactly once per round.
	round uint64
	// The pipelined round's batch, epochs (nil: the base epoch) and
	// result slots.
	batch   []packet.Message
	epochs  []topology.EpochVersion
	results []Result
	// The on-worker read: the shard that answers, whether it answers
	// Candidates instead of a Verdict, and the answer slots.
	target     int
	wantCands  bool
	verdict    Verdict
	candidates []packet.NodeID
	// Round callbacks bound once, so the per-batch rounds and the
	// one-shard read pass the pool the same func value every call
	// instead of allocating a closure.
	verifyFn, foldFn, shardFn, readFn func(*clusterWorker, int)

	// sealed is the merged state once Close has released the workers.
	sealed *Tracker

	// obs bindings; no-ops unless a registry was supplied.
	obsBatches  *obs.Counter
	obsSpread   *obs.Histogram
	obsDropped  *obs.Counter
	obsCrashes  *obs.Counter
	obsRestores *obs.Counter
}

// clusterWorker is one worker's goroutine-owned state.
type clusterWorker struct {
	// v is the worker's private verifier chain.
	v Verifier
	// tracker is the shard the worker owns, folding over v. It is nil on
	// the verify-only workers of a one-shard pipelined cluster and while
	// the shard is crashed.
	tracker *Tracker
	// ckpt is the shard's at-crash PNM2 blob while it is down.
	ckpt []byte
	// round is the last Observe round that recycled v's chain arena.
	round uint64
}

// errClusterClosed reports a crash or restore on a closed cluster.
var errClusterClosed = errors.New("sink: cluster is closed")

// ShardOf deterministically maps a report to a shard in [0, shards). It
// hashes the report's source-identity fields (Event and Location) and
// ignores Seq, so every packet of one source's stream — and every
// retransmission of one report — lands on the same shard, which is what
// keeps that shard's resolver table cache hot. Correctness does not
// depend on the grouping: any deterministic partition merges to the same
// verdict; this one is chosen for cache locality.
func ShardOf(report packet.Report, shards int) int {
	if shards <= 1 {
		return 0
	}
	// FNV-1a over the 8 source-identity bytes.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 24; shift >= 0; shift -= 8 {
		h = (h ^ uint64(report.Event>>shift)&0xFF) * prime64
	}
	for shift := 24; shift >= 0; shift -= 8 {
		h = (h ^ uint64(report.Location>>shift)&0xFF) * prime64
	}
	return int(h % uint64(shards))
}

// NewCluster starts the sink engine: shards shards (at least 1) and, when
// there is one shard, workers verification workers (at least 1; ignored
// when shards > 1). factory runs once inside each worker goroutine to
// build that worker's private verifier chain, and again on every shard
// restore. reg may be nil; when set, the cluster binds its own metrics,
// every shard tracker and every verifier the factory builds into it (the
// counters are shared atomics, so sums across shards line up with a
// serial sink's). Close the cluster to release the workers.
func NewCluster(shards, workers int, factory func() Verifier, topo *topology.Network, reg *obs.Registry) *Cluster {
	shards = max(shards, 1)
	if shards > 1 || workers < 1 {
		workers = shards
	}
	c := &Cluster{
		shards:  shards,
		workers: workers,
		factory: factory,
		topo:    topo,
		reg:     reg,
		down:    make([]bool, shards),
		counts:  make([]int, shards),
		seen:    make([]int, shards),
		groups:  make([][]packet.Message, shards),
		gEpochs: make([][]topology.EpochVersion, shards),
		at:      make([][]int, shards),
		perRes:  make([][]Result, shards),
		picked:  make([]bool, shards),
		errs:    make([]error, shards),
	}
	c.verifyFn, c.foldFn, c.shardFn, c.readFn = c.verifyAt, c.foldAll, c.observeShard, c.readOn
	c.obsBatches = reg.Counter("sink.cluster.batches")
	c.obsSpread = reg.Histogram("sink.cluster.shards_per_batch")
	c.obsDropped = reg.Counter("sink.cluster.dropped_while_down")
	c.obsCrashes = reg.Counter("sink.cluster.shard_crashes")
	c.obsRestores = reg.Counter("sink.cluster.shard_restores")
	c.pool = parallel.NewPool(workers, func() *clusterWorker {
		return &clusterWorker{v: c.newVerifier()}
	})
	c.each(func(w *clusterWorker, _ int) {
		w.tracker = NewTracker(w.v, topo)
		if reg != nil {
			w.tracker.Instrument(reg)
		}
	})
	return c
}

// newVerifier builds one verifier chain through the factory and binds it
// into the registry. It runs on the worker that will own the chain.
func (c *Cluster) newVerifier() Verifier {
	v := c.factory()
	if in, ok := v.(Instrumentable); ok && c.reg != nil {
		in.Instrument(c.reg)
	}
	return v
}

// each runs fn once per shard, on the worker goroutine that owns it.
// Passing n == shards to Do pins index i to worker i (one-slot spans), so
// shard identity is stable across the cluster's lifetime.
func (c *Cluster) each(fn func(w *clusterWorker, i int)) {
	c.pool.Do(c.shards, fn)
}

// note refreshes the caller's view of shard i from its live tracker.
func (c *Cluster) note(w *clusterWorker, i int) {
	c.counts[i] = w.tracker.Packets()
	c.seen[i] = w.tracker.Order().SeenCount()
}

// reset recycles the worker's chain arena on the first packet it sees in
// a round: the previous round's Results are dead by contract (read
// before the next Observe), and every Result of the current round stays
// valid together.
func (w *clusterWorker) reset(round uint64) {
	if w.round == round {
		return
	}
	w.round = round
	if rs, ok := w.v.(VerifyScratch); ok {
		rs.ResetVerifyScratch()
	}
}

// Observe verifies and folds one batch and returns the per-packet Results
// in batch order. epochs[i], when epochs is non-nil, names slot i's
// arrival epoch, so the packet verifies against the routing tree it was
// forwarded under; nil verifies everything against the base epoch. The
// returned slice is the cluster's scratch: read it before the next
// Observe. dropped counts the packets discarded because their shard is
// crashed; their Result slots stay zero.
func (c *Cluster) Observe(batch []packet.Message, epochs []topology.EpochVersion) (results []Result, dropped int) {
	if len(batch) == 0 {
		return nil, 0
	}
	if epochs != nil && len(epochs) != len(batch) {
		panic("sink: cluster batch and epoch slices disagree")
	}
	if cap(c.scratch) < len(batch) {
		c.scratch = make([]Result, len(batch))
	}
	results = c.scratch[:len(batch)]
	c.round++
	if c.workers > c.shards && !c.down[0] {
		c.observePipelined(batch, epochs, results)
	} else {
		dropped = c.observeSharded(batch, epochs, results)
	}
	c.obsDropped.Add(uint64(dropped))
	c.obsBatches.Inc()
	return results, dropped
}

// observePipelined is the one-shard round over W workers: verify the
// batch across every worker's chain, then fold the Results into the shard
// in arrival order on the shard's own worker. While the shard is down the
// sharded round drops the batch instead.
func (c *Cluster) observePipelined(batch []packet.Message, epochs []topology.EpochVersion, results []Result) {
	c.batch, c.epochs, c.results = batch, epochs, results
	c.pool.Do(len(batch), c.verifyFn)
	c.each(c.foldFn)
	c.batch, c.epochs, c.results = nil, nil, nil
	c.obsSpread.Observe(1)
}

// verifyAt verifies slot i of the pipelined round on worker w's chain.
func (c *Cluster) verifyAt(w *clusterWorker, i int) {
	var e topology.EpochVersion
	if c.epochs != nil {
		e = c.epochs[i]
	}
	w.reset(c.round)
	c.results[i] = VerifyAtEpoch(w.v, c.batch[i], e)
}

// foldAll folds the pipelined round's Results into the shard, on its
// owning worker.
func (c *Cluster) foldAll(w *clusterWorker, i int) {
	for _, res := range c.results {
		w.tracker.Fold(res)
	}
	c.note(w, i)
}

// observeSharded is the per-shard round: partition the batch, verify and
// fold each live shard's sub-batch on its owning worker in arrival order,
// and scatter the Results back into batch order.
func (c *Cluster) observeSharded(batch []packet.Message, epochs []topology.EpochVersion, results []Result) (dropped int) {
	for i := range c.groups {
		c.groups[i] = c.groups[i][:0]
		c.gEpochs[i] = c.gEpochs[i][:0]
		c.at[i] = c.at[i][:0]
	}
	for pos, msg := range batch {
		i := ShardOf(msg.Report, c.shards)
		c.groups[i] = append(c.groups[i], msg)
		var e topology.EpochVersion
		if epochs != nil {
			e = epochs[pos]
		}
		c.gEpochs[i] = append(c.gEpochs[i], e)
		c.at[i] = append(c.at[i], pos)
	}
	touched := 0
	for i := range c.groups {
		n := len(c.groups[i])
		if n == 0 {
			continue
		}
		touched++
		if c.down[i] {
			dropped += n
			c.groups[i] = c.groups[i][:0]
			c.at[i] = c.at[i][:0]
			continue
		}
		if cap(c.perRes[i]) < n {
			c.perRes[i] = make([]Result, n)
		}
	}
	c.each(c.shardFn)
	clear(results)
	for i := range c.groups {
		for j, pos := range c.at[i] {
			results[pos] = c.perRes[i][j]
		}
	}
	c.obsSpread.Observe(uint64(touched))
	return dropped
}

// observeShard verifies and folds shard i's sub-batch on its worker.
func (c *Cluster) observeShard(w *clusterWorker, i int) {
	if len(c.groups[i]) == 0 {
		return
	}
	w.reset(c.round)
	res := c.perRes[i][:len(c.groups[i])]
	for j, msg := range c.groups[i] {
		res[j] = w.tracker.ObserveKeepAt(msg, c.gEpochs[i][j])
	}
	c.note(w, i)
}

// Verdict computes the cluster's traceback conclusion — byte-identical to
// a single Tracker fed the same packets, at any shard or worker count.
func (c *Cluster) Verdict() Verdict {
	if t := c.standalone(); t != nil {
		return t.Verdict()
	}
	c.wantCands = false
	c.pool.Do(c.shards, c.readFn)
	v := c.verdict
	c.verdict = Verdict{}
	return v
}

// Candidates returns the cluster-wide candidate source set: the minimal
// elements of the cluster's order.
func (c *Cluster) Candidates() []packet.NodeID {
	if t := c.standalone(); t != nil {
		return t.Candidates()
	}
	c.wantCands = true
	c.pool.Do(c.shards, c.readFn)
	out := c.candidates
	c.candidates = nil
	return out
}

// Packets returns how many packets the cluster has folded, summed over
// the shards; a crashed shard counts what it had folded when it crashed.
func (c *Cluster) Packets() int {
	if c.sealed != nil {
		return c.sealed.Packets()
	}
	total := 0
	for _, n := range c.counts {
		total += n
	}
	return total
}

// standalone returns a tracker the caller can read on its own goroutine:
// the sealed state after Close, or the merge of every shard's order. It
// returns nil, with c.target set, when one live shard holds all of the
// evidence, as a lone live shard always does, so that shard answers on
// its own worker and the read pays no merge.
func (c *Cluster) standalone() *Tracker {
	if c.sealed != nil {
		return c.sealed
	}
	if c.target = c.sole(); c.target >= 0 {
		return nil
	}
	return c.merged()
}

// sole returns the live shard holding all of the cluster's evidence, or
// -1 when there is none, or it spans several shards or sits in a crashed
// shard's blob.
func (c *Cluster) sole() int {
	sole := -1
	for i, n := range c.seen {
		if n > 0 {
			if sole >= 0 || c.down[i] {
				return -1
			}
			sole = i
		}
	}
	return sole
}

// readOn answers the pending read on the target shard's worker.
func (c *Cluster) readOn(w *clusterWorker, i int) {
	if i != c.target {
		return
	}
	if c.wantCands {
		c.candidates = w.tracker.Candidates()
	} else {
		c.verdict = w.tracker.Verdict()
	}
}

// merged folds every shard's order into one standalone read-only tracker.
// A live shard merges straight from its own worker; a crashed shard
// merges from its at-crash blob, since the evidence it folded before
// going down is still part of the cluster's knowledge. The workers merge
// as they come, under a lock: the closure of the union does not depend
// on the merge order.
func (c *Cluster) merged() *Tracker {
	order := NewOrder()
	var mu sync.Mutex
	c.each(func(w *clusterWorker, i int) {
		src := w.tracker
		if c.down[i] {
			var err error
			if src, err = RestoreTracker(w.ckpt, nil, nil); err != nil {
				// The blob is bytes this worker wrote at crash time;
				// failing to read it back is a programming error.
				panic(fmt.Sprintf("sink: cluster merge: shard %d: %v", i, err))
			}
		}
		mu.Lock()
		order.Merge(src.order)
		mu.Unlock()
	})
	return &Tracker{order: order, topo: c.topo, packets: c.Packets()}
}

// Checkpoint snapshots every shard as an independent PNM2 tracker blob.
// Blob i restores shard i of a cluster rebuilt by RestoreCluster; a
// crashed shard yields its at-crash blob.
func (c *Cluster) Checkpoint() [][]byte {
	out := make([][]byte, c.shards)
	c.each(func(w *clusterWorker, i int) {
		if c.down[i] {
			out[i] = append([]byte(nil), w.ckpt...)
			return
		}
		out[i] = w.tracker.Checkpoint()
	})
	return out
}

// CrashShard takes shard i down: its worker checkpoints the shard into
// the shard's own PNM2 blob and drops the live state, and packets
// partitioned to the shard are dropped and counted until RestoreShard.
// The other shards keep verifying — the failure domain is one shard.
func (c *Cluster) CrashShard(i int) error {
	return c.crash(i, false)
}

// Crash takes the whole sink down: every live shard crashes as in
// CrashShard, so Observe drops every packet until Restore. Reads keep
// answering from the at-crash blobs.
func (c *Cluster) Crash() error {
	return c.crash(0, true)
}

// RestoreShard rebuilds crashed shard i from its own at-crash blob with a
// fresh verifier chain and brings it back into the partition. Neither
// the shard's order matrix nor its packet count is lost across the crash.
func (c *Cluster) RestoreShard(i int) error {
	return c.restoreOwn(i, false)
}

// Restore brings the whole sink back: every crashed shard is rebuilt from
// its own at-crash blob, as in RestoreShard.
func (c *Cluster) Restore() error {
	return c.restoreOwn(0, true)
}

// pick marks in c.picked the shards a crash (down == false) or restore
// (down == true) acts on: shard i, or every shard when all is set, among
// those whose down state equals down. It fails when the cluster is
// closed, the shard does not exist, or nothing qualifies.
func (c *Cluster) pick(i int, all, down bool) error {
	if c.sealed != nil {
		return errClusterClosed
	}
	if !all && (i < 0 || i >= c.shards) {
		return fmt.Errorf("sink: cluster has no shard %d", i)
	}
	found := false
	for j := range c.picked {
		c.picked[j] = c.down[j] == down && (all || j == i)
		found = found || c.picked[j]
	}
	if !found {
		return fmt.Errorf("sink: no shard to act on (shard %d, all %v, down %v)", i, all, down)
	}
	return nil
}

// crash checkpoints and drops the picked shards, each on its own worker.
func (c *Cluster) crash(i int, all bool) error {
	if err := c.pick(i, all, false); err != nil {
		return err
	}
	c.each(func(w *clusterWorker, j int) {
		if c.picked[j] {
			w.ckpt = w.tracker.Checkpoint()
			w.tracker = nil
		}
	})
	for j, p := range c.picked {
		if p {
			c.down[j] = true
			c.obsCrashes.Inc()
		}
	}
	return nil
}

// restoreOwn restores from blobs the cluster wrote itself, so a blob that
// does not read back is a programming error.
func (c *Cluster) restoreOwn(i int, all bool) error {
	if err := c.pick(i, all, true); err != nil {
		return err
	}
	if err := c.restore(); err != nil {
		panic(fmt.Sprintf("sink: %v", err))
	}
	return nil
}

// restore rebuilds every picked shard from the blob its worker holds,
// with a fresh verifier chain, on its own worker. It reports the first
// shard whose blob does not read back; that shard stays down.
func (c *Cluster) restore() error {
	c.each(func(w *clusterWorker, i int) {
		c.errs[i] = nil
		if !c.picked[i] {
			return
		}
		v := c.newVerifier()
		tr, err := RestoreTracker(w.ckpt, v, c.topo)
		if err != nil {
			c.errs[i] = err
			return
		}
		if c.reg != nil {
			// Registry-backed counters continue the lifetime series.
			tr.Instrument(c.reg)
		}
		w.v, w.tracker, w.ckpt = v, tr, nil
		c.note(w, i)
	})
	for i, p := range c.picked {
		if !p {
			continue
		}
		if c.errs[i] != nil {
			return fmt.Errorf("shard %d: %w", i, c.errs[i])
		}
		c.down[i] = false
		c.obsRestores.Inc()
	}
	return nil
}

// RestoreCluster rebuilds a cluster from per-shard PNM2 blobs, one shard
// per blob, reattaching fresh factory-built verifier chains. The blob
// order must match the Checkpoint that produced them: the partition
// function is a pure function of the shard count, so restoring the same
// number of shards reproduces the same routing.
func RestoreCluster(blobs [][]byte, factory func() Verifier, topo *topology.Network, reg *obs.Registry) (*Cluster, error) {
	if len(blobs) == 0 {
		return nil, fmt.Errorf("sink: cluster restore needs at least one shard blob")
	}
	c := NewCluster(len(blobs), 1, factory, topo, reg)
	// Every shard starts crashed with its given blob, then restores.
	c.each(func(w *clusterWorker, i int) {
		w.tracker, w.ckpt = nil, blobs[i]
	})
	for i := range c.down {
		c.down[i], c.picked[i] = true, true
	}
	if err := c.restore(); err != nil {
		c.pool.Close()
		return nil, fmt.Errorf("sink: cluster restore: %w", err)
	}
	return c, nil
}

// Close seals the cluster's state into a standalone read-only tracker and
// stops the workers. Verdict, Candidates and Packets keep answering from
// the sealed state; nothing folds anymore. Safe to call more than once.
func (c *Cluster) Close() {
	if c.sealed != nil {
		return
	}
	c.sealed = c.merged()
	c.pool.Close()
}
