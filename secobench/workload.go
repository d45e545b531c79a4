package main

import (
	"context"
	"math"
	"math/rand"
)

// workload is one named load the benchmark drives; BENCHMARK.json
// records why each was chosen.
type workload struct {
	name string
	// open selects the open-loop generator at a fixed offered rate;
	// otherwise every client sends its next request when the last one
	// completes.
	open bool
	// setup builds the worlds, plans and reference answers. traced
	// installs the service decorator that feeds the traced run.
	setup func(seed int64, traced bool) (target, error)
}

var workloads = []workload{
	{
		name:  "topk-stream",
		setup: newDirect,
	},
	{
		name:  "plan-cold",
		setup: newPlanCold,
	},
	{
		name:  "serve-warm",
		open:  true,
		setup: newServeWarm,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// class is one kind of request: a name, its share of the request mix,
// and the reference top-k scores every response is checked against.
type class struct {
	name   string
	weight int
	ref    []float64
}

// outcome is what one request returned, as far as the benchmark checks
// and counts it.
type outcome struct {
	scores []float64
	// certified is the provably correct prefix of scores (all of them
	// unless the run degraded).
	certified int
	err       error
	degraded  bool
	rejected  bool
	// Engine-side counts (direct workloads; serve-warm reads them from
	// the servers' metrics registries instead).
	calls       int64
	invocations int64
	callsSaved  float64
	halted      bool
	simMS       float64
	// Optimizer counts (plan-cold).
	explored, pruned int
	// Serving (serve-warm).
	respBytes int
	tier      string
}

// target is a set-up workload.
type target interface {
	classes() []class
	// payload renders what a request of class c sends to the program.
	payload(c int) string
	// do executes one request of class c for a client (closed loop) or
	// connection (open loop). A non-nil tr records spans under root.
	do(ctx context.Context, client, c int, tr *reqTrace, root int) outcome
	// sideCalls times, outside any request, the per-request layer calls
	// the request path makes implicitly (plancheck inside Execute, the
	// annotation inside Optimize): it returns microseconds per call, or
	// 0 when the workload's path does not make the call.
	sideCalls(c int) (checkUS, annotateUS float64)
	// wire returns the substrate-side counts, nil unless traced.
	wire() *wireCounters
	close()
}

// picker draws a seeded weighted sequence of class indexes.
type picker struct {
	rng   *rand.Rand
	cum   []int
	total int
}

// newPicker seeds one request stream; stream separates the streams of
// different clients under one seed.
func newPicker(classes []class, seed int64, stream int) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed*7919 + int64(stream)*104729 + 1))}
	for _, c := range classes {
		p.total += c.weight
		p.cum = append(p.cum, p.total)
	}
	return p
}

func (p *picker) next() int {
	x := p.rng.Intn(p.total)
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// scoreTol absorbs floating-point reassociation between the pull and
// drain drivers' incremental scoring.
const scoreTol = 1e-9

// matches reports whether a response's scores agree with the reference
// top-k scores. Ties in score may reorder combinations, so only scores
// are compared; a degraded response is compared on its certified
// prefix.
func matches(ref []float64, o outcome) bool {
	got := o.scores
	if o.degraded {
		if o.certified > len(got) || o.certified > len(ref) {
			return false
		}
		got, ref = got[:o.certified], ref[:o.certified]
	}
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-ref[i]) > scoreTol {
			return false
		}
	}
	return true
}
