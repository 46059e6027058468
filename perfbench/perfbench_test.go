package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"testing"
)

// small shrinks a workload so that a run takes about a second while
// keeping its shape: the same traffic mix, churn, polling and shards.
func small(name string) config {
	cfg := workloads[name]
	switch name {
	case "keyed-deep":
		cfg.Nodes, cfg.Hosts = 256, 16
	case "multi-churn":
		cfg.Nodes, cfg.MolePairs, cfg.ChurnEvery = 128, 8, 64
	}
	cfg.LocalizeReplicas, cfg.LocalizePackets = 4, 64
	return cfg
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmall runs every workload at reduced size, untraced and
// traced: each must pass its correctness gate and emit exactly the
// metrics BENCHMARK.json names, in its units.
func TestWorkloadsSmall(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := measure(small(name), 3, 0.5, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for k, m := range res.Metrics {
				if unit, ok := want[k]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json has %q (declared %v)", name, traced, k, m.Unit, unit, ok)
				}
			}
		}
	}
}

// TestGateRejectsDivergence checks that the gate fails a run whose
// server lost a frame, answered a different verdict or missed a rewire.
func TestGateRejectsDivergence(t *testing.T) {
	cfg := small("keyed-deep")
	s, err := setUp(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Close()
	st := record(s.sc, 5, 2000, 0, 0)
	tm, err := runTimed(s, st, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.srv.Close()
	ref, err := replay(s.sc, encodeFrames(st.msgs[:tm.delivered]), st.epochs[:tm.delivered], false)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate(s, tm, s.srv.Verdict(), ref, nil); err != nil {
		t.Fatalf("honest run fails the gate: %v", err)
	}
	wrong := s.srv.Verdict()
	wrong.Stop++
	if err := gate(s, tm, wrong, ref, nil); !errors.Is(err, errGate) {
		t.Fatalf("diverged verdict passes the gate: %v", err)
	}
	lost := *tm
	lost.delivered--
	if err := gate(s, &lost, s.srv.Verdict(), ref, nil); !errors.Is(err, errGate) {
		t.Fatalf("lost frame passes the gate: %v", err)
	}
	s.sc.cfg.Epochs = 1
	if err := gate(s, tm, s.srv.Verdict(), ref, nil); !errors.Is(err, errGate) {
		t.Fatalf("run without its rewire passes the gate: %v", err)
	}
}
