// Command pnmserve is the networked sink: it listens for framed marked
// reports on real TCP (and optionally UDP) sockets, verifies them
// through the sink engine, and prints the traceback verdict — the
// in-process simulator's sink turned into a service.
//
// Usage:
//
//	pnmserve -listen 127.0.0.1:7101 -nodes 300 -side 10 -range 1.3 -packets 400
//
// The scenario flags (-nodes/-side/-range/-seed) regenerate the exact
// deployment and key material a pnmload with the same flags generates
// traffic for; the final verdict line is byte-identical to the one the
// same scenario produces in-process (pnmload -expect prints it).
//
// -chaos derives the sink-crash events of a fault plan and fires them
// against the live server: the sink engine checkpoints every shard
// (PNM2), goes down — arrivals are dropped and counted — and restores
// mid-stream. -queue selects the ingest overflow policy (block,
// drop-newest, drop-oldest). -workers and -shards shape the one sink
// engine (sink.Cluster): -workers verifies each batch across that many
// workers and folds into one shard; -shards splits the sink into that
// many independently checkpointed shards instead and supersedes
// -workers. Verdicts are byte-identical at any shape; with several
// shards, -chaos crashes and restores a single shard rather than the
// whole sink. -stats dumps the obs registry (transport.*, sink.*) to
// stderr at exit; -debug ADDR additionally serves pprof and expvar.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pnm/internal/loadgen"
	"pnm/internal/netsim"
	"pnm/internal/obs"
	"pnm/internal/queue"
	"pnm/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnmserve:", err)
		os.Exit(1)
	}
}

// debugReg backs the expvar "pnm" variable; see pnmlive for the pattern
// (expvar publishes once per process, run may execute repeatedly under
// test).
var (
	debugOnce sync.Once
	debugReg  atomic.Pointer[obs.Registry]
)

// serveDebug publishes reg on addr and returns a clean shutdown func.
func serveDebug(addr string, reg *obs.Registry) (func() error, error) {
	debugReg.Store(reg)
	debugOnce.Do(func() {
		expvar.Publish("pnm", expvar.Func(func() any { return debugReg.Load().Map() }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.DefaultServeMux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ and /debug/vars\n", ln.Addr())
	return func() error {
		srv.Close()
		if err := <-serveErr; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}, nil
}

// chaosFromFaultPlan maps a PR 5 fault plan onto the transport server:
// only the sink and shard events exist here (there are no simulated nodes
// or links in front of a real socket), so node/link events are dropped
// and the milestones carry over as processed-frame counts.
func chaosFromFaultPlan(plan *netsim.FaultPlan) *transport.ChaosPlan {
	out := &transport.ChaosPlan{}
	for _, ev := range plan.Events {
		switch ev.Kind {
		case netsim.FaultSinkCrash:
			out.Events = append(out.Events, transport.ChaosEvent{At: ev.At, Kind: transport.ChaosSinkCrash})
		case netsim.FaultSinkRestore:
			out.Events = append(out.Events, transport.ChaosEvent{At: ev.At, Kind: transport.ChaosSinkRestore})
		case netsim.FaultShardCrash:
			out.Events = append(out.Events, transport.ChaosEvent{At: ev.At, Kind: transport.ChaosShardCrash, Shard: ev.Shard})
		case netsim.FaultShardRestore:
			out.Events = append(out.Events, transport.ChaosEvent{At: ev.At, Kind: transport.ChaosShardRestore, Shard: ev.Shard})
		}
	}
	return out
}

// run executes the server.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("pnmserve", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:7101", "TCP listen address (:0 picks a port)")
		udpAddr    = fs.String("udp", "", "optional UDP listen address")
		nodes      = fs.Int("nodes", 300, "scenario: sensor node count")
		side       = fs.Float64("side", 10, "scenario: deployment square side")
		radioRange = fs.Float64("range", 1.3, "scenario: radio range")
		seed       = fs.Int64("seed", 1, "scenario: RNG seed")
		packets    = fs.Int("packets", 400, "exit after this many ingested reports (0 = until killed)")
		workers    = fs.Int("workers", 1, "sink engine verification workers (<=1 serial)")
		shards     = fs.Int("shards", 1, "sink engine shards (<=1 unsharded; supersedes -workers)")
		queueFlag  = fs.String("queue", "block", "ingest overflow policy: block, drop-newest, drop-oldest")
		depth      = fs.Int("queue-depth", 256, "ingest queue depth")
		maxFrame   = fs.Int("max-frame", transport.DefaultMaxFrameBytes, "max frame payload bytes accepted from a peer")
		maxMarks   = fs.Int("max-marks", transport.DefaultMaxMarks, "max marks accepted per report")
		chaos      = fs.Bool("chaos", false, "fire a seeded fault plan's sink crash/restore events against the live server")
		stats      = fs.Bool("stats", false, "dump obs counters to stderr at exit")
		debugAddr  = fs.String("debug", "", "serve pprof and expvar obs counters on this address")
		timeout    = fs.Duration("timeout", 5*time.Minute, "give up waiting for -packets after this long")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := queue.Parse(*queueFlag)
	if err != nil {
		return err
	}
	sc, err := loadgen.New(loadgen.Config{
		Nodes: *nodes, Side: *side, RadioRange: *radioRange, Seed: *seed,
	})
	if err != nil {
		return err
	}

	reg := obs.New()
	if *debugAddr != "" {
		stop, derr := serveDebug(*debugAddr, reg)
		if derr != nil {
			return derr
		}
		defer func() {
			if derr := stop(); derr != nil && err == nil {
				err = derr
			}
		}()
	}

	var plan *transport.ChaosPlan
	if *chaos {
		if *packets <= 0 {
			return fmt.Errorf("-chaos needs -packets to place its milestones")
		}
		// Sharded servers take the crash at shard granularity: one shard
		// checkpoints and goes down while the sink stays up; unsharded
		// servers keep the PR 5 whole-sink crash.
		planCfg := netsim.FaultPlanConfig{Start: *packets / 8, Step: *packets / 8}
		if *shards > 1 {
			planCfg.ShardCrashes, planCfg.Shards = 1, *shards
		} else {
			planCfg.SinkCrashes = 1
		}
		full := netsim.GenerateFaultPlan(*seed, sc.Topo, planCfg)
		plan = chaosFromFaultPlan(full)
		fmt.Fprintf(os.Stderr, "chaos plan: %v\n", plan.Events)
	}

	srv, err := transport.Listen(*listen, *udpAddr, transport.Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
		Workers:     *workers,
		Shards:      *shards,
		QueueDepth:  *depth,
		Policy:      policy,
		Limits:      transport.Limits{MaxFrameBytes: *maxFrame, MaxMarks: *maxMarks},
		Obs:         reg,
		Chaos:       plan,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Fprintf(w, "listening on %s", srv.Addr())
	if u := srv.UDPAddr(); u != nil {
		fmt.Fprintf(w, " (udp %s)", u)
	}
	if *shards > 1 {
		fmt.Fprintf(w, "\nscenario: %d nodes, mole %v at %d hops, policy %s, %d shards\n",
			sc.Topo.NumNodes(), sc.Mole, sc.Hops, policy, *shards)
	} else {
		fmt.Fprintf(w, "\nscenario: %d nodes, mole %v at %d hops, policy %s, %d workers\n",
			sc.Topo.NumNodes(), sc.Mole, sc.Hops, policy, *workers)
	}

	if *packets > 0 {
		if err := srv.WaitDelivered(*packets, *timeout); err != nil {
			return err
		}
	} else {
		// Run until the process is killed; WaitDelivered can never
		// satisfy a want beyond all traffic, so park on a huge target.
		srv.WaitDelivered(int(^uint(0)>>1), *timeout)
	}
	fmt.Fprintf(w, "delivered %d\n", srv.Delivered())
	fmt.Fprintln(w, loadgen.FormatVerdict(srv.Verdict()))
	if *stats {
		fmt.Fprintln(os.Stderr, "\nobs counters:")
		reg.Fprint(os.Stderr)
	}
	return nil
}
