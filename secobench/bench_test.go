package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// describe renders the first n requests of a stream, one per line: the
// request sequence the program under test receives.
func describe(tg target, seed int64, stream, n int) []byte {
	classes := tg.classes()
	p := newPicker(classes, seed, stream)
	var b strings.Builder
	for i := 0; i < n; i++ {
		c := p.next()
		fmt.Fprintf(&b, "%s\t%s\n", classes[c].name, tg.payload(c))
	}
	return []byte(b.String())
}

// setupOnce builds a workload, closing it when the test ends.
func setupOnce(t *testing.T, w workload, seed int64, traced bool) target {
	t.Helper()
	tg, err := w.setup(seed, traced)
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	t.Cleanup(tg.close)
	return tg
}

// TestRequestSequenceDeterministic checks that a seed fixes the request
// sequence byte for byte, and that another seed changes it.
func TestRequestSequenceDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := describe(setupOnce(t, w, 3, false), 3, 1, 400)
			b := describe(setupOnce(t, w, 3, false), 3, 1, 400)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed 3 gave two different request sequences")
			}
			c := describe(setupOnce(t, w, 4, false), 4, 1, 400)
			if bytes.Equal(a, c) {
				t.Fatalf("seeds 3 and 4 gave the same request sequence")
			}
		})
	}
}

// TestEveryRunPrintsEveryMetric runs each workload briefly in both modes
// and checks the reported names and units against BENCHMARK.json.
func TestEveryRunPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, sw.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := run(w, 5, 300*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestPerturbedAnswerCaught checks that a response differing from its
// reference counts as wrong.
func TestPerturbedAnswerCaught(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tg := setupOnce(t, w, 2, false)
			cls := tg.classes()
			var c int
			for c = range cls {
				if len(cls[c].ref) > 0 {
					break
				}
			}
			o := tg.do(context.Background(), 0, c, nil, -1)
			var tl tally
			tl.observe(cls[c], o, time.Millisecond, false, 0)
			if tl.ok != 1 || tl.wrong != 0 {
				t.Fatalf("unperturbed %s: ok=%d wrong=%d", cls[c].name, tl.ok, tl.wrong)
			}
			bad := cls[c]
			bad.ref = append([]float64(nil), bad.ref...)
			bad.ref[len(bad.ref)-1] += 1e-6
			tl.observe(bad, o, time.Millisecond, false, 0)
			if tl.wrong != 1 {
				t.Fatalf("perturbed %s reference not caught", cls[c].name)
			}
		})
	}
}

func TestMatches(t *testing.T) {
	ref := []float64{0.9, 0.8, 0.8, 0.5}
	cases := []struct {
		name string
		o    outcome
		want bool
	}{
		{"equal", outcome{scores: []float64{0.9, 0.8, 0.8, 0.5}}, true},
		{"rounding", outcome{scores: []float64{0.9, 0.8 + 1e-12, 0.8, 0.5}}, true},
		{"short", outcome{scores: []float64{0.9, 0.8, 0.8}}, false},
		{"long", outcome{scores: []float64{0.9, 0.8, 0.8, 0.5, 0.4}}, false},
		{"wrong score", outcome{scores: []float64{0.9, 0.8, 0.7, 0.5}}, false},
		{"certified prefix", outcome{scores: []float64{0.9, 0.8, 0.6}, degraded: true, certified: 2}, true},
		{"wrong certified prefix", outcome{scores: []float64{0.9, 0.7}, degraded: true, certified: 2}, false},
		{"prefix longer than answer", outcome{scores: []float64{0.9}, degraded: true, certified: 2}, false},
	}
	for _, c := range cases {
		if got := matches(ref, c.o); got != c.want {
			t.Errorf("%s: matches = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSelfTimesAddUp checks the self-time fold on a hand-built trace: a
// request with an execute span over two overlapping fetches.
func TestSelfTimesAddUp(t *testing.T) {
	tr := newReqTrace(1)
	root := tr.record("request", 0, 100, -1)
	ex := tr.record("engine.execute", 10, 90, root)
	tr.record("service.fetch", 20, 50, ex)
	tr.record("service.fetch", 40, 60, ex)
	s := newTraceStats()
	s.fold(tr, "c")
	want := map[string]int64{"bench": 20, "engine": 40, "service": 40}
	var sum int64
	for layer, ns := range s.selfNS {
		sum += ns
		if ns != want[layer] {
			t.Errorf("%s self = %d, want %d", layer, ns, want[layer])
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	if s.busyNS["service.fetch"] != 50 {
		t.Errorf("service busy = %d, want 50", s.busyNS["service.fetch"])
	}
}

// TestOffOptimumPlanCaught checks that on plan-cold a plan that is not
// one of the optimum's ties counts as failed, even when its answer is
// right: the optimizer's output is checked, not only the engine's.
func TestOffOptimumPlanCaught(t *testing.T) {
	w, _ := workloadByName("plan-cold")
	p := setupOnce(t, w, 2, false).(*planCold)
	c := 0
	var tl tally
	tl.observe(p.cls[c], p.do(context.Background(), 0, c, nil, -1), time.Millisecond, false, 0)
	if tl.ok != 1 {
		t.Fatalf("%s at the optimum: ok=%d failed=%d wrong=%d", p.cls[c].name, tl.ok, tl.failed, tl.wrong)
	}
	p.qs[c].cost *= 0.99
	tl.observe(p.cls[c], p.do(context.Background(), 0, c, nil, -1), time.Millisecond, false, 0)
	if tl.failed != 1 {
		t.Fatalf("%s: a plan 1%% over the optimum's cost was not caught", p.cls[c].name)
	}
}
