package netsim

// Fault injection and crash recovery for the live simulator.
//
// A fault plan is a deterministic, seeded schedule of failures: node
// crashes and restarts, link churn, and sink or shard crashes with
// restore from the sink engine's PNM2 checkpoints. Events fire at
// *progress milestones* — counts of settled packets (delivered plus
// accounted drops) — not at wall-clock instants, so the same plan against
// the same traffic produces the same network history regardless of
// scheduling jitter or machine speed.
//
// Two ways to drive a plan:
//
//   - Config.Faults hands the plan to a scheduler goroutine (runFaults)
//     that parks on the progress broadcast and applies each event as its
//     milestone is crossed. Good for chaos testing and pnmlive.
//   - ApplyFault applies one event immediately from the caller's
//     goroutine. Applied at quiescent points (after WaitSettled), this
//     makes runs exactly reproducible — experiment.FaultBench uses it.
//
// Crash semantics: the node's goroutine exits, its inbox drains to the
// floor (every frame counted as a fault drop), and the routing view is
// recomputed so the dead node's subtree re-homes around it (or orphans,
// if no alternate path exists). Restart rebuilds the stack from zero —
// a rebooted mote's RAM — and respawns the goroutine with an
// incarnation-salted RNG. Sink crash has the sink engine checkpoint every
// shard first; restore rebuilds each shard from its own checkpoint, so
// neither the order matrix nor the packet count is lost.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// FaultKind identifies one kind of scheduled failure.
type FaultKind int

// The fault kinds.
const (
	// FaultNodeCrash kills a node: goroutine exits, inbox drains to the
	// floor, routes repair around it.
	FaultNodeCrash FaultKind = iota + 1
	// FaultNodeRestart reboots a crashed node with rebuilt (empty) state.
	FaultNodeRestart
	// FaultLinkDown cuts the node's link to its current parent; the
	// subtree re-homes through an alternate neighbor if one exists.
	FaultLinkDown
	// FaultLinkUp restores every link previously cut for the node.
	FaultLinkUp
	// FaultSinkCrash kills the sink after the engine checkpoints every
	// shard (PNM2); arrivals while it is down are dropped.
	FaultSinkCrash
	// FaultSinkRestore rebuilds every shard from its crash checkpoint.
	FaultSinkRestore
	// FaultShardCrash checkpoints one sink shard (PNM2) and takes only it
	// down: the sink stays up, the other shards keep folding, and the down
	// shard's partition of arriving packets terminates as accounted drops.
	// With one shard, shard 0 is the whole partition.
	FaultShardCrash
	// FaultShardRestore rebuilds the crashed shard from its own blob.
	FaultShardRestore
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNodeCrash:
		return "node-crash"
	case FaultNodeRestart:
		return "node-restart"
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultSinkCrash:
		return "sink-crash"
	case FaultSinkRestore:
		return "sink-restore"
	case FaultShardCrash:
		return "shard-crash"
	case FaultShardRestore:
		return "shard-restore"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled failure.
type FaultEvent struct {
	// At is the progress milestone — settled packets (delivered plus
	// accounted drops) — at which the event fires.
	At int
	// Kind selects the failure.
	Kind FaultKind
	// Node is the victim for node and link events; ignored for sink and
	// shard events.
	Node packet.NodeID
	// Shard is the victim for shard events; ignored otherwise.
	Shard int
}

// String renders the event for logs and benchmark rows.
func (e FaultEvent) String() string {
	switch e.Kind {
	case FaultSinkCrash, FaultSinkRestore:
		return fmt.Sprintf("@%d %s", e.At, e.Kind)
	case FaultShardCrash, FaultShardRestore:
		return fmt.Sprintf("@%d %s s%d", e.At, e.Kind, e.Shard)
	}
	return fmt.Sprintf("@%d %s n%d", e.At, e.Kind, e.Node)
}

// FaultPlan is a deterministic schedule of failures.
type FaultPlan struct {
	// Events fire in order; At milestones must be non-decreasing.
	Events []FaultEvent
	// StallTimeout bounds how long the scheduler waits for progress
	// before force-firing the next event anyway — without it, a network
	// stalled *by* a fault (say the sink crashed and everything upstream
	// blocks) could never reach the milestone that schedules the
	// recovery. Zero means a 2s default.
	StallTimeout time.Duration
}

// defaultStallTimeout is the scheduler's progress-stall fallback.
const defaultStallTimeout = 2 * time.Second

// FaultPlanConfig parameterizes GenerateFaultPlan.
type FaultPlanConfig struct {
	// Start is the first event's milestone; Step spaces the rest.
	// Defaults: 20 and 20.
	Start, Step int
	// NodeChurn schedules this many crash→restart pairs.
	NodeChurn int
	// LinkChurn schedules this many link-down→link-up pairs.
	LinkChurn int
	// SinkCrashes schedules this many sink crash→restore pairs.
	SinkCrashes int
	// ShardCrashes schedules this many single-shard crash→restore pairs,
	// rotating through Shards sink shards.
	ShardCrashes int
	// Shards is the cluster width ShardCrashes rotates over; defaults to
	// 1 (every pair hits shard 0).
	Shards int
	// Protect lists nodes never crashed or link-cut (e.g. the mole and
	// its first hop, whose ordering evidence the traceback needs).
	Protect []packet.NodeID
	// Candidates is the victim pool; nil means every forwarder in topo.
	Candidates []packet.NodeID
}

// GenerateFaultPlan builds a seeded plan: victims are drawn without
// replacement from the candidate pool (minus protected nodes), and churn
// pairs interleave crash/down events with their recoveries one Step
// later. The same seed, topology and config always yield the same plan.
func GenerateFaultPlan(seed int64, topo *topology.Network, cfg FaultPlanConfig) *FaultPlan {
	if cfg.Start <= 0 {
		cfg.Start = 20
	}
	if cfg.Step <= 0 {
		cfg.Step = 20
	}
	protected := make(map[packet.NodeID]bool, len(cfg.Protect))
	for _, id := range cfg.Protect {
		protected[id] = true
	}
	pool := cfg.Candidates
	if pool == nil {
		pool = topo.Nodes()
	}
	victims := make([]packet.NodeID, 0, len(pool))
	for _, id := range pool {
		if id != packet.SinkID && !protected[id] {
			victims = append(victims, id)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })

	plan := &FaultPlan{}
	at := cfg.Start
	next := func() packet.NodeID {
		if len(victims) == 0 {
			return 0
		}
		v := victims[0]
		victims = victims[1:]
		return v
	}
	for i := 0; i < cfg.NodeChurn; i++ {
		v := next()
		if v == 0 {
			break
		}
		plan.Events = append(plan.Events,
			FaultEvent{At: at, Kind: FaultNodeCrash, Node: v},
			FaultEvent{At: at + cfg.Step, Kind: FaultNodeRestart, Node: v})
		at += 2 * cfg.Step
	}
	for i := 0; i < cfg.LinkChurn; i++ {
		v := next()
		if v == 0 {
			break
		}
		plan.Events = append(plan.Events,
			FaultEvent{At: at, Kind: FaultLinkDown, Node: v},
			FaultEvent{At: at + cfg.Step, Kind: FaultLinkUp, Node: v})
		at += 2 * cfg.Step
	}
	for i := 0; i < cfg.SinkCrashes; i++ {
		plan.Events = append(plan.Events,
			FaultEvent{At: at, Kind: FaultSinkCrash},
			FaultEvent{At: at + cfg.Step, Kind: FaultSinkRestore})
		at += 2 * cfg.Step
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	for i := 0; i < cfg.ShardCrashes; i++ {
		s := i % shards
		plan.Events = append(plan.Events,
			FaultEvent{At: at, Kind: FaultShardCrash, Shard: s},
			FaultEvent{At: at + cfg.Step, Kind: FaultShardRestore, Shard: s})
		at += 2 * cfg.Step
	}
	sort.SliceStable(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}

// faultCounters groups the fault layer's observability bindings. All
// fields are nil-safe no-ops until bind is called.
type faultCounters struct {
	nodeCrashes   *obs.Counter
	nodeRestarts  *obs.Counter
	linkDown      *obs.Counter
	linkUp        *obs.Counter
	sinkCrashes   *obs.Counter
	sinkRestores  *obs.Counter
	shardCrashes  *obs.Counter
	shardRestores *obs.Counter
	reroutes      *obs.Counter

	// Terminal drop reasons introduced by the fault layer.
	inboxDropped  *obs.Counter // drained from a crashed node's inbox
	sinkDropped   *obs.Counter // drained from the sink queue at sink crash
	shardDropped  *obs.Counter // partitioned to a crashed shard at fold time
	droppedToDown *obs.Counter // next hop (or sink) was down at send time
	orphanDropped *obs.Counter // no route to the sink at send time
	sendAborted   *obs.Counter // sender crashed while blocked on a full queue
}

func (f *faultCounters) bind(reg *obs.Registry) {
	f.nodeCrashes = reg.Counter("netsim.fault.node_crashes")
	f.nodeRestarts = reg.Counter("netsim.fault.node_restarts")
	f.linkDown = reg.Counter("netsim.fault.link_down")
	f.linkUp = reg.Counter("netsim.fault.link_up")
	f.sinkCrashes = reg.Counter("netsim.fault.sink_crashes")
	f.sinkRestores = reg.Counter("netsim.fault.sink_restores")
	f.shardCrashes = reg.Counter("netsim.fault.shard_crashes")
	f.shardRestores = reg.Counter("netsim.fault.shard_restores")
	f.reroutes = reg.Counter("netsim.fault.reroutes")
	f.inboxDropped = reg.Counter("netsim.fault.inbox_dropped")
	f.sinkDropped = reg.Counter("netsim.fault.sink_dropped")
	f.shardDropped = reg.Counter("netsim.fault.shard_dropped")
	f.droppedToDown = reg.Counter("netsim.fault.dropped_to_down")
	f.orphanDropped = reg.Counter("netsim.fault.orphan_dropped")
	f.sendAborted = reg.Counter("netsim.fault.send_aborted")
}

// ApplyFault applies one fault event immediately, from the caller's
// goroutine. Events are idempotent: crashing a dead node, restarting a
// live one, or restoring a healthy sink are no-ops. Safe from any
// goroutine; applications serialize.
func (n *Network) ApplyFault(ev FaultEvent) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	switch ev.Kind {
	case FaultNodeCrash:
		n.crashNodeLocked(ev.Node)
	case FaultNodeRestart:
		n.restartNodeLocked(ev.Node)
	case FaultLinkDown:
		n.linkDownLocked(ev.Node)
	case FaultLinkUp:
		n.linkUpLocked(ev.Node)
	case FaultSinkCrash:
		n.crashSinkLocked()
	case FaultSinkRestore:
		n.restoreSinkLocked()
	case FaultShardCrash:
		n.crashShardLocked(ev.Shard)
	case FaultShardRestore:
		n.restoreShardLocked(ev.Shard)
	}
}

// crashNodeLocked kills one node: the goroutine exits, queued frames die
// with it, routes repair around the corpse. Callers hold faultMu.
func (n *Network) crashNodeLocked(id packet.NodeID) {
	if id == packet.SinkID || n.inbox[id] == nil {
		return
	}
	n.stateMu.RLock()
	down := n.nodeDown[id]
	n.stateMu.RUnlock()
	if down {
		return
	}
	close(n.nodeKill[id])
	<-n.nodeDone[id]
	// Mark it down before draining so new arrivals drop at the sender
	// instead of racing into the drained queue.
	n.stateMu.Lock()
	n.nodeDown[id] = true
	n.stateMu.Unlock()
	n.drainInbox(id)
	n.recomputeRoutesLocked()
	n.obsFault.nodeCrashes.Inc()
}

// restartNodeLocked reboots a crashed node: fresh stack (state rebuilt
// from zero), fresh goroutine, incarnation-salted RNG. Callers hold
// faultMu.
func (n *Network) restartNodeLocked(id packet.NodeID) {
	if id == packet.SinkID || n.inbox[id] == nil {
		return
	}
	n.stateMu.RLock()
	down := n.nodeDown[id]
	n.stateMu.RUnlock()
	if !down {
		return
	}
	// Frames that raced past the down check after the crash drain died
	// with the old incarnation; sweep any stragglers before rebooting.
	n.drainInbox(id)
	n.incarnation[id]++
	fresh := n.newNode(id)
	n.stateMu.Lock()
	n.nodes[id] = fresh
	n.nodeDown[id] = false
	n.stateMu.Unlock()
	n.spawnNode(id, fresh)
	n.recomputeRoutesLocked()
	n.obsFault.nodeRestarts.Inc()
}

// drainInbox empties a dead node's queue, accounting every frame as a
// terminal fault drop so settledness stays sound.
func (n *Network) drainInbox(id packet.NodeID) {
	for {
		select {
		case <-n.inbox[id]:
			n.noteDrop(n.obsFault.inboxDropped)
		default:
			return
		}
	}
}

// linkDownLocked cuts id's link to its *current* parent. If the node is
// already orphaned (or down) there is nothing to cut. Callers hold
// faultMu.
func (n *Network) linkDownLocked(id packet.NodeID) {
	if id == packet.SinkID || n.inbox[id] == nil {
		return
	}
	n.stateMu.RLock()
	routable := n.routes.HasRoute(id)
	var hop packet.NodeID
	if routable {
		hop = n.routes.Parent(id)
	}
	n.stateMu.RUnlock()
	if !routable {
		return
	}
	n.linksDown[id] = append(n.linksDown[id], normLink(id, hop))
	n.recomputeRoutesLocked()
	n.obsFault.linkDown.Inc()
}

// linkUpLocked restores every link previously cut for id. Callers hold
// faultMu.
func (n *Network) linkUpLocked(id packet.NodeID) {
	if len(n.linksDown[id]) == 0 {
		return
	}
	delete(n.linksDown, id)
	n.recomputeRoutesLocked()
	n.obsFault.linkUp.Inc()
}

// normLink orders a link's endpoints so (a,b) and (b,a) are the same cut.
func normLink(a, b packet.NodeID) [2]packet.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]packet.NodeID{a, b}
}

// crashSinkLocked kills the sink goroutine and has the engine checkpoint
// and drop every shard; queued and in-flight deliveries die. Verdicts stay
// readable, and stale, from the checkpoints while the sink is down.
// Callers hold faultMu.
func (n *Network) crashSinkLocked() {
	n.stateMu.RLock()
	down := n.sinkDown
	n.stateMu.RUnlock()
	if down {
		return
	}
	close(n.sinkKill)
	<-n.sinkDone
	n.mu.Lock()
	_ = n.engine.Crash() // shards an earlier fault crashed stay down
	n.mu.Unlock()
	// Mark it down before draining so new arrivals drop at the sender.
	n.stateMu.Lock()
	n.sinkDown = true
	n.stateMu.Unlock()
	for {
		select {
		case <-n.sinkCh:
			n.noteDrop(n.obsFault.sinkDropped)
		default:
			n.obsFault.sinkCrashes.Inc()
			return
		}
	}
}

// restoreSinkLocked has the engine rebuild every crashed shard from its
// own checkpoint, with fresh verifier chains, and respawns the sink
// goroutine. Neither the order matrix nor the packet count is lost across
// the crash. Callers hold faultMu.
func (n *Network) restoreSinkLocked() {
	n.stateMu.RLock()
	down := n.sinkDown
	n.stateMu.RUnlock()
	if !down {
		return
	}
	n.mu.Lock()
	_ = n.engine.Restore() // only errs when nothing is down
	n.mu.Unlock()
	n.stateMu.Lock()
	n.sinkDown = false
	n.stateMu.Unlock()
	n.spawnSink()
	n.obsFault.sinkRestores.Inc()
}

// crashShardLocked takes one sink shard down; arriving packets
// partitioned to it terminate as accounted drops until restore. A no-op on
// an unknown shard index or an already-down shard — faults are
// idempotent. Callers hold faultMu; the engine ops take mu to serialize
// with the sink goroutine's folds.
func (n *Network) crashShardLocked(i int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.engine.CrashShard(i) == nil {
		n.obsFault.shardCrashes.Inc()
	}
}

// restoreShardLocked rebuilds a crashed shard from its own checkpoint and
// brings it back into the partition; the shard's order matrix and packet
// count survive the outage. Callers hold faultMu.
func (n *Network) restoreShardLocked(i int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.engine.RestoreShard(i) == nil {
		n.obsFault.shardRestores.Inc()
	}
}

// recomputeRoutesLocked rebuilds the routing view for the current fault
// state. With no faults outstanding it restores cfg.Topo itself, so the
// fault-free fast path never pays for repair. Callers hold faultMu, which
// also freezes the nodeDown/linksDown state the predicates read.
func (n *Network) recomputeRoutesLocked() {
	var next *topology.Network
	cut := make(map[[2]packet.NodeID]bool)
	for _, links := range n.linksDown {
		for _, l := range links {
			cut[l] = true
		}
	}
	anyDown := false
	for _, d := range n.nodeDown {
		if d {
			anyDown = true
			break
		}
	}
	if !anyDown && len(cut) == 0 {
		next = n.cfg.Topo
	} else {
		next = n.cfg.Topo.Reroute(
			func(id packet.NodeID) bool { return n.nodeDown[id] },
			func(a, b packet.NodeID) bool { return cut[normLink(a, b)] },
		)
	}
	n.stateMu.Lock()
	n.routes = next
	n.stateMu.Unlock()
	// Every repair opens a new topology epoch: packets already queued keep
	// the epoch they arrived under, packets delivered from here on stamp
	// the new version and resolve against the repaired tree.
	n.epochs.Advance(next)
	n.obsFault.reroutes.Inc()
}

// runFaults is the async fault scheduler: it waits for each event's
// progress milestone and applies it. Milestones count settled packets, so
// against deterministic traffic the plan fires at reproducible points.
func (n *Network) runFaults(plan *FaultPlan) {
	defer n.wg.Done()
	stall := plan.StallTimeout
	if stall <= 0 {
		stall = defaultStallTimeout
	}
	for _, ev := range plan.Events {
		if !n.awaitProgress(ev.At, stall) {
			return
		}
		n.ApplyFault(ev)
	}
}

// awaitProgress blocks until at least `at` packets have settled, the
// network stops (returns false), or no progress happens for a full stall
// window — then it returns true anyway, force-firing the next event: a
// network stalled by a fault must still reach the event that repairs it.
func (n *Network) awaitProgress(at int, stall time.Duration) bool {
	// The fault scheduler's one intentional timer: the stall fallback is
	// inherently wall-clock — it exists to bound *lack* of simulated
	// progress, which no progress-driven signal can do.
	//pnmlint:allow wallclock stall fallback so a fault-stalled network still reaches its recovery event
	timer := time.NewTimer(stall)
	defer timer.Stop()
	last := -1
	for {
		n.mu.Lock()
		settled := n.delivered + n.dropped
		ch := n.deliveredCh
		n.mu.Unlock()
		if settled >= at {
			return true
		}
		if settled != last {
			last = settled
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(stall)
		}
		select {
		case <-ch:
		case <-timer.C:
			return true // stalled: force-fire the event
		case <-n.stop:
			return false
		}
	}
}
