package mac

import (
	"math/rand"
	"testing"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// TestScheduleMatchesColdHMAC pins the engine's correctness contract: a
// cached schedule's Sum and AnonID are bit-identical to the package-level
// (fresh-hmac.New) functions for every key, message length and node ID.
func TestScheduleMatchesColdHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ks := NewKeyStore([]byte("schedule-equiv"))
	for trial := 0; trial < 64; trial++ {
		id := packet.NodeID(rng.Intn(1 << 12))
		k := ks.Key(id)
		s := NewSchedule(k)
		for _, n := range []int{0, 1, 31, 64, 65, 200} {
			data := make([]byte, n)
			rng.Read(data)
			if got, want := s.Sum(data), Sum(k, data); got != want {
				t.Fatalf("Schedule.Sum(%d bytes) = %x, cold Sum = %x", n, got, want)
			}
		}
		report := packet.Report{
			Event:     rng.Uint32(),
			Location:  rng.Uint32(),
			Timestamp: rng.Uint64(),
			Seq:       rng.Uint32(),
		}
		if got, want := s.AnonID(report, id), AnonID(k, report, id); got != want {
			t.Fatalf("Schedule.AnonID = %x, cold AnonID = %x", got, want)
		}
	}
}

// TestScheduleReuseIsStateless verifies that interleaving Sum and AnonID
// calls on one schedule never leaks state between calls.
func TestScheduleReuseIsStateless(t *testing.T) {
	ks := NewKeyStore([]byte("schedule-reuse"))
	k := ks.Key(3)
	s := NewSchedule(k)
	data := []byte("the same input every time")
	report := packet.Report{Event: 1, Location: 2, Timestamp: 3, Seq: 4}
	wantSum := Sum(k, data)
	wantAnon := AnonID(k, report, 3)
	for i := 0; i < 10; i++ {
		if got := s.Sum(data); got != wantSum {
			t.Fatalf("call %d: Sum drifted: %x != %x", i, got, wantSum)
		}
		if got := s.AnonID(report, 3); got != wantAnon {
			t.Fatalf("call %d: AnonID drifted: %x != %x", i, got, wantAnon)
		}
	}
}

// TestScheduleZeroAllocs pins the zero-alloc claim the sink pipeline's
// throughput rests on: after construction, neither Sum nor AnonID
// allocates.
func TestScheduleZeroAllocs(t *testing.T) {
	ks := NewKeyStore([]byte("schedule-allocs"))
	s := NewSchedule(ks.Key(1))
	data := make([]byte, 96)
	report := packet.Report{Event: 9, Location: 9, Timestamp: 9, Seq: 9}

	if n := testing.AllocsPerRun(200, func() { s.Sum(data) }); n != 0 {
		t.Errorf("Schedule.Sum allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.AnonID(report, 1) }); n != 0 {
		t.Errorf("Schedule.AnonID allocates %.1f/op, want 0", n)
	}
	var in AnonInput
	in.SetReport(report)
	if n := testing.AllocsPerRun(200, func() { s.AnonIDInput(&in, 1) }); n != 0 {
		t.Errorf("Schedule.AnonIDInput allocates %.1f/op, want 0", n)
	}
	h := ks.Hasher()
	h.Schedule(1)
	if n := testing.AllocsPerRun(200, func() { h.AnonID(1, report) }); n != 0 {
		t.Errorf("Hasher.AnonID on a cached schedule allocates %.1f/op, want 0", n)
	}
}

// TestHasherCachesSchedules verifies the per-goroutine cache hands back
// the same schedule per node and counts hits and misses.
func TestHasherCachesSchedules(t *testing.T) {
	ks := NewKeyStore([]byte("hasher-cache"))
	h := ks.Hasher()
	reg := obs.New()
	h.Instrument(reg)

	s1 := h.Schedule(7)
	if s2 := h.Schedule(7); s2 != s1 {
		t.Fatal("second Schedule(7) returned a different instance")
	}
	h.Schedule(8)
	if hits := reg.Counter("mac.schedule.hits").Value(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if misses := reg.Counter("mac.schedule.misses").Value(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}

	// The convenience forms agree with the cold path.
	data := []byte("hello")
	if got, want := h.Sum(7, data), Sum(ks.Key(7), data); got != want {
		t.Errorf("Hasher.Sum = %x, want %x", got, want)
	}
	report := packet.Report{Event: 5}
	if got, want := h.AnonID(7, report), AnonID(ks.Key(7), report, 7); got != want {
		t.Errorf("Hasher.AnonID = %x, want %x", got, want)
	}
}

// TestSharedScratchDoesNotAlias interleaves Sum and AnonID calls across
// several schedules of one Hasher (which share one scratch), a
// standalone NewSchedule and the Hasher's own forms: every output must
// equal the cold functions. After InvalidateSchedules the dense cache
// serves rebuilt schedules that still agree.
func TestSharedScratchDoesNotAlias(t *testing.T) {
	ks := NewKeyStore([]byte("shared-scratch"))
	h := ks.Hasher()
	ids := []packet.NodeID{3, 700, 1, 64, 2048}
	lone := NewSchedule(ks.Key(9))
	rng := rand.New(rand.NewSource(11))
	check := func(round int) {
		for i := 0; i < 200; i++ {
			id := ids[rng.Intn(len(ids))]
			data := make([]byte, rng.Intn(100))
			rng.Read(data)
			report := packet.Report{Event: rng.Uint32(), Seq: uint32(i)}
			k := ks.Key(id)
			s := h.Schedule(id)
			if got, want := s.Sum(data), Sum(k, data); got != want {
				t.Fatalf("round %d: schedule %d Sum = %x, want %x", round, id, got, want)
			}
			if got, want := lone.AnonID(report, 9), AnonID(ks.Key(9), report, 9); got != want {
				t.Fatalf("round %d: standalone AnonID = %x, want %x", round, got, want)
			}
			if got, want := h.AnonID(id, report), AnonID(k, report, id); got != want {
				t.Fatalf("round %d: Hasher.AnonID(%d) = %x, want %x", round, id, got, want)
			}
			var in AnonInput
			in.SetReport(report)
			other := ids[rng.Intn(len(ids))]
			if got, want := h.Schedule(other).AnonIDInput(&in, other), AnonID(ks.Key(other), report, other); got != want {
				t.Fatalf("round %d: AnonIDInput(%d) = %x, want %x", round, other, got, want)
			}
			if got, want := s.AnonID(report, id), AnonID(k, report, id); got != want {
				t.Fatalf("round %d: schedule %d AnonID = %x, want %x", round, id, got, want)
			}
			if got, want := h.Sum(id, data), Sum(k, data); got != want {
				t.Fatalf("round %d: Hasher.Sum(%d) = %x, want %x", round, id, got, want)
			}
		}
	}
	check(0)
	before := h.Schedule(700)
	ks.InvalidateSchedules()
	// The next miss notices the new epoch and drops the cache, so even
	// node 700, cached before, is rebuilt around a fresh core.
	h.Schedule(5)
	if after := h.Schedule(700); after == before {
		t.Fatal("schedule 700 survived InvalidateSchedules")
	}
	check(1)
}

// benchData is a representative nested-MAC input: a report plus a few
// marks' worth of bytes.
var benchData = make([]byte, 80)

// BenchmarkSumCold measures the pre-engine hot path: a fresh HMAC object
// per call, two pad compressions and several allocations each time.
func BenchmarkSumCold(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	k := ks.Key(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum(k, benchData)
	}
}

// BenchmarkSumSchedule measures the cached-schedule path the sink runs.
func BenchmarkSumSchedule(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	s := NewSchedule(ks.Key(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sum(benchData)
	}
}

// BenchmarkAnonIDCold measures the fresh-HMAC anonymous-ID derivation —
// the per-node unit of ExhaustiveResolver.buildTable's O(n) loop.
func BenchmarkAnonIDCold(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	k := ks.Key(1)
	report := packet.Report{Event: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AnonID(k, report, 1)
	}
}

// BenchmarkAnonIDSchedule measures the cached-schedule derivation.
func BenchmarkAnonIDSchedule(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	s := NewSchedule(ks.Key(1))
	report := packet.Report{Event: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AnonID(report, 1)
	}
}
