package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnm/internal/obs"
	"pnm/internal/queue"
	"pnm/internal/transport"
)

// server is one set-up sink: the scenario it was built from and the
// listening transport in front of it.
type server struct {
	sc  *scenario
	srv *transport.Server
	reg *obs.Registry
	// topoS and listenS split the set-up time.
	topoS, listenS float64
}

// setUp builds the scenario, its topology and verifier factory, and
// starts transport.Listen on loopback, as pnmserve does. Load generation
// is not part of it.
func setUp(cfg config, seed int64) (*server, error) {
	t0 := time.Now()
	sc, err := buildScenario(cfg, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	reg := obs.New()
	srv, err := transport.Listen("127.0.0.1:0", "", transport.Config{
		NewVerifier: sc.newVerifier,
		Topo:        sc.topo(),
		Epochs:      sc.epochs,
		Shards:      shards,
		Policy:      queue.Block,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	return &server{sc: sc, srv: srv, reg: reg,
		topoS: t1.Sub(t0).Seconds(), listenS: t2.Sub(t1).Seconds()}, nil
}

// timing is what the loopback run measured.
type timing struct {
	sent, delivered int
	decodeRejects   uint64
	throughputPPS   float64
	latencyMs       []float64 // per packet after warm-up, sorted
	p50Ms, p99Ms    float64   // medians over windows
	windowPPS       []float64
	verdictMs       []float64 // sorted
	epochsApplied   int
	heapBytes       float64
	batchLen        float64
}

// inflight bounds the frames sent but not yet folded when sending as
// fast as the server admits: four ingest queues' worth. A packet's
// latency there is mostly its wait behind the others in flight, about
// inflight over throughput.
const inflight = 1024

// settleTimeout bounds any wait for the server to fold what was sent.
const settleTimeout = 60 * time.Second

// runTimed sends the recorded stream over one loopback TCP connection
// for the given duration and measures the server from outside. Tracing
// is off: the only clocks read are the sender's and the delivery
// watcher's.
//
// serverIdle is the live heap the idle server held right after set-up;
// the run adds what the server grew by while folding.
func runTimed(s *server, st *stream, seconds float64, serverIdle uint64) (*timing, error) {
	cfg := s.sc.cfg
	cl, err := transport.Dial(s.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	n := len(st.msgs)
	sentAt := make([]int64, n)
	foldAt := make([]int64, n)
	verdictNs := make([]int64, 0, n/max(cfg.PollEvery, 1)+32)
	heapBefore := liveHeap()
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }

	// The watcher stamps every packet with the instant the server
	// reports it folded; the sink folds one connection's frames in
	// order, so the delivered count is a prefix.
	var final atomic.Int64
	final.Store(-1)
	watchErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		idle := time.Now()
		for {
			if f := final.Load(); f >= 0 && int64(last) >= f {
				watchErr <- nil
				return
			}
			if err := s.srv.WaitDelivered(last+1, 20*time.Millisecond); err != nil {
				if time.Since(idle) > settleTimeout {
					watchErr <- fmt.Errorf("no delivery progress for %v: %v", settleTimeout, err)
					return
				}
				continue
			}
			t := now()
			d := min(s.srv.Delivered(), n)
			for ; last < d; last++ {
				foldAt[last] = t
			}
			idle = time.Now()
		}
	}()

	deadline := int64(seconds * float64(time.Second))
	sent := 0
	epoch := 0
	var sendErr error
	switch {
	case cfg.PollEvery > 0:
		// Closed loop in batches: send one batch, wait until it is
		// folded, poll the verdict as an operator would, and only then
		// advance the topology epoch, so every frame is stamped with the
		// epoch it was marked under.
		for sent < n && now() < deadline && sendErr == nil {
			end := min(sent+cfg.PollEvery, n)
			for ; sent < end && sendErr == nil; sent++ {
				sentAt[sent] = now()
				sendErr = cl.Send(st.msgs[sent])
			}
			if sendErr == nil {
				sendErr = cl.Flush()
			}
			if sendErr != nil {
				break
			}
			if err := s.srv.WaitDelivered(sent, settleTimeout); err != nil {
				sendErr = err
				break
			}
			t := now()
			s.srv.Verdict()
			verdictNs = append(verdictNs, now()-t)
			for epoch < len(st.advanceAt) && sent >= st.advanceAt[epoch] {
				epoch++
				s.sc.epochs.Advance(s.sc.nets[epoch])
			}
		}
	default:
		// As fast as backpressure admits: the server's queue.Block policy
		// stalls the reader, which blocks this writer. The sender also
		// keeps at most inflight frames unfolded, so megabytes of
		// loopback socket buffer cannot turn the end of the run into a
		// long drain; the ingest queue still never runs dry.
		for sent < n && sendErr == nil {
			if sent%64 == 0 {
				if now() >= deadline {
					break
				}
				if sent-s.srv.Delivered() >= inflight {
					if sendErr = cl.Flush(); sendErr != nil {
						break
					}
					if sendErr = s.srv.WaitDelivered(sent-inflight+64, settleTimeout); sendErr != nil {
						break
					}
				}
			}
			sentAt[sent] = now()
			sendErr = cl.Send(st.msgs[sent])
			if sendErr == nil {
				sent++
			}
		}
		if sendErr == nil {
			sendErr = cl.Flush()
		}
	}
	if sendErr != nil {
		final.Store(0)
		cl.Close()
		wg.Wait()
		return nil, fmt.Errorf("send: %w", sendErr)
	}
	final.Store(int64(sent))
	if err := <-watchErr; err != nil {
		cl.Close()
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	if err := cl.Close(); err != nil {
		return nil, fmt.Errorf("close client: %w", err)
	}
	if sent == 0 {
		return nil, fmt.Errorf("nothing sent")
	}

	// Live heap the settled server retains: what it held idle plus what
	// it grew by. The recorded stream and this run's bookkeeping are live
	// at both readings, so they cancel.
	heapAfter := liveHeap()
	tm := &timing{sent: sent, delivered: s.srv.Delivered(), epochsApplied: epoch}
	tm.heapBytes = float64(serverIdle) + float64(heapAfter) - float64(heapBefore)
	// The first tenth of the run warms caches and lets queues fill; it
	// counts for correctness but not for throughput or latency.
	warm := sort.Search(sent, func(i int) bool { return sentAt[i] >= deadline/10 })
	if warm >= sent-1 {
		warm = 0
	}
	// Throughput and latency are taken per one-second window of the
	// measured part and reported as the median over windows, so a burst
	// of interference from outside the process moves one window, not the
	// result.
	from := sentAt[0]
	if warm > 0 {
		from = foldAt[warm-1]
	}
	wins := windows(from, foldAt[sent-1])
	folded := make([]float64, len(wins)-1)
	p50s := make([]float64, len(wins)-1)
	p99s := make([]float64, len(wins)-1)
	lat := make([][]float64, len(wins)-1)
	for i := warm; i < sent; i++ {
		w := sort.Search(len(wins)-1, func(k int) bool { return wins[k+1] >= foldAt[i] })
		folded[min(w, len(folded)-1)]++
		l := float64(foldAt[i]-sentAt[i]) / 1e6
		lat[min(w, len(lat)-1)] = append(lat[min(w, len(lat)-1)], l)
		tm.latencyMs = append(tm.latencyMs, l)
	}
	for w := range folded {
		folded[w] /= float64(wins[w+1]-wins[w]) / 1e9
		sort.Float64s(lat[w])
		p50s[w], p99s[w] = pct(lat[w], 50), pct(lat[w], 99)
	}
	tm.windowPPS = folded
	tm.throughputPPS = median(folded)
	if pe := cfg.PollEvery; pe > 0 {
		// In batches, each cycle sends a batch, waits for its fold, polls
		// the verdict and advances the epoch. Every cycle waits on several
		// goroutine wake-ups, so a stall of the host lengthens the cycles
		// it falls in; the rate is taken over the median cycle, which that
		// minority does not move.
		var cycles []float64
		for k := warm - warm%pe; k+pe < sent; k += pe {
			cycles = append(cycles, float64(sentAt[k+pe]-sentAt[k]))
		}
		if len(cycles) > 0 {
			tm.throughputPPS = float64(pe) / (median(cycles) / 1e9)
		}
	}
	tm.p50Ms, tm.p99Ms = median(p50s), median(p99s)
	sort.Float64s(tm.latencyMs)

	// The verdict an operator reads: polled every batch on churn, and on
	// the settled final state otherwise. There each sample times a batch
	// of calls at least a millisecond long, so that a cheap verdict is
	// not lost in the clock's resolution.
	for _, v := range verdictNs {
		tm.verdictMs = append(tm.verdictMs, float64(v)/1e6)
	}
	if len(verdictNs) == 0 {
		t := now()
		s.srv.Verdict()
		reps := max(int(time.Millisecond)/int(max(now()-t, 1)), 1)
		for k := 0; k < 21; k++ {
			t := now()
			for r := 0; r < reps; r++ {
				s.srv.Verdict()
			}
			tm.verdictMs = append(tm.verdictMs, float64(now()-t)/1e6/float64(reps))
		}
	}
	sort.Float64s(tm.verdictMs)

	tm.decodeRejects = decodeRejects(s.reg)
	tm.batchLen = s.reg.Histogram("transport.ingest.batch_occupancy").Mean()
	return tm, nil
}

// decodeRejects sums the transport's frame rejection counters.
func decodeRejects(reg *obs.Registry) uint64 {
	var total uint64
	for _, name := range []string{
		"transport.decode.bad_magic", "transport.decode.bad_version",
		"transport.decode.bad_type", "transport.decode.frame_too_big",
		"transport.decode.truncated", "transport.decode.bad_payload",
	} {
		total += reg.Counter(name).Value()
	}
	return total
}

// liveHeap collects garbage twice (the second pass frees what
// finalizers and pools released in the first) and reads the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// windows splits [from, to] into whole one-second windows, the last
// one stretched to the end; a span shorter than two seconds is one
// window. It returns the window boundaries.
func windows(from, to int64) []int64 {
	const win = int64(time.Second)
	k := max((to-from)/win, 1)
	if k == 1 {
		return []int64{from, to}
	}
	out := make([]int64, 0, k+1)
	for i := int64(0); i < k; i++ {
		out = append(out, from+i*win)
	}
	return append(out, to)
}
