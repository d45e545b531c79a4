package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seco/internal/core"
	"seco/internal/engine"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/service"
	"seco/internal/types"
)

// parallelism is engine.Options.Parallelism on every workload.
const parallelism = 4

// ks are the requested result sizes of every direct and served class.
var ks = []int{1, 5, 10, 20}

// directWorlds is the number of seeded worlds per scenario; the run's
// mean then averages over that many worlds instead of hanging on one.
const directWorlds = 32

// When this benchmark was written, conftravel K=20 under pull took 4–115
// ms per query depending on the world (mean ≈ 30 ms) while the other
// classes took 0.3–5 ms; K=10 took ≈ 5 ms. mixWeights gives each scenario's
// classes, by K, their share of the request mix, split evenly over the
// scenario's worlds. Weighted as below, conftravel K=20 is ≈ 15% of busy
// time and K=10 ≈ 18%, and no class takes much more than a fifth.
// serve-warm serves the same mix.
var mixWeights = map[string][4]int{
	"movienight":    {16, 16, 16, 16},
	"conftravel":    {16, 16, 8, 1},
	"triangle":      {16, 16, 16, 16},
	"triangle-zipf": {16, 16, 16, 16},
}

// worldSeed derives the seed of world w of scenario s from the run seed.
func worldSeed(seed int64, s, w int) int64 {
	return seed*1_000_003 + int64(s)*1009 + int64(w)
}

// directReq is one direct class: a plan optimized at set-up and, per
// client, the engine it runs on. Each client owns its engines, so no two
// in-flight runs share a VirtualClock and inflate each other's elapsed
// time.
type directReq struct {
	res     *optimizer.Result
	inputs  map[string]types.Value
	engines []*engine.Engine
}

type direct struct {
	cls  []class
	reqs []directReq
	wc   *wireCounters
}

func newDirect(seed int64, traced bool) (target, error) {
	d := &direct{}
	var deco *decorator
	if traced {
		d.wc = &wireCounters{}
		deco = newDecorator(d.wc)
	}
	// One unit per (scenario, world), built in parallel and appended in
	// order, so the class list does not depend on scheduling.
	type unit struct {
		cls  []class
		reqs []directReq
	}
	units := make([]unit, len(scenarios)*directWorlds)
	err := parallel(len(units), func(u int) error {
		si, w := u/directWorlds, u%directWorlds
		sc := scenarios[si]
		sys, inputs, err := sc.build(worldSeed(seed, si, w))
		if err != nil {
			return fmt.Errorf("%s world %d: %w", sc.name, w, err)
		}
		q, err := sys.Parse(sc.text)
		if err != nil {
			return err
		}
		var engines []*engine.Engine
		for ki, k := range ks {
			res, err := sys.Plan(q, core.PlanOptions{K: k})
			if err != nil {
				return fmt.Errorf("%s k=%d: %w", sc.name, k, err)
			}
			services, err := bindAliases(sys, res)
			if err != nil {
				return err
			}
			if engines == nil {
				for c := 0; c < closedClients; c++ {
					engines = append(engines, newEngine(services, deco))
				}
			}
			ref, err := reference(services, res.Annotated, res.Query.Weights, inputs)
			if err != nil {
				return fmt.Errorf("%s k=%d reference: %w", sc.name, k, err)
			}
			units[u].cls = append(units[u].cls, class{
				name:   fmt.Sprintf("%s/w%d/k%d", sc.name, w, k),
				weight: mixWeights[sc.name][ki],
				ref:    ref,
			})
			units[u].reqs = append(units[u].reqs, directReq{res: res, inputs: inputs, engines: engines})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		d.cls = append(d.cls, u.cls...)
		d.reqs = append(d.reqs, u.reqs...)
	}
	return d, nil
}

// parallel runs f(0..n-1) on one goroutine per CPU and returns the
// first error; it returns once every call has.
func parallel(n int, f func(i int) error) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for g := 0; g < cpus; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// bindAliases maps a plan's aliases to the system's bound services.
func bindAliases(sys *core.System, res *optimizer.Result) (map[string]service.Service, error) {
	out := map[string]service.Service{}
	for _, ref := range res.Query.Services {
		svc, ok := sys.Service(ref.Interface.Name)
		if !ok {
			return nil, fmt.Errorf("no service bound for %s", ref.Interface.Name)
		}
		out[ref.Alias] = svc
	}
	return out, nil
}

// newEngine builds a virtual-clock engine over the services, through the
// timing decorator when tracing.
func newEngine(services map[string]service.Service, deco *decorator) *engine.Engine {
	if deco != nil {
		wrapped := make(map[string]service.Service, len(services))
		for alias, svc := range services {
			wrapped[alias] = deco.wrap(svc)
		}
		services = wrapped
	}
	return engine.NewWithConfig(services, engine.Config{})
}

// reference runs the plan once on a fresh engine with one worker and the
// materializing driver, and returns the top-k scores, the answer every
// timed response of the class must match. Every workload times the pull
// driver, so the two drivers check each other: a defect of one shows as
// wrong answers instead of being copied into the reference.
func reference(services map[string]service.Service, a *plan.Annotated, weights map[string]float64, inputs map[string]types.Value) ([]float64, error) {
	run, err := engine.NewWithConfig(services, engine.Config{}).Execute(context.Background(), a, engine.Options{
		Inputs: inputs, Weights: weights, TargetK: a.Plan.K,
		Parallelism: 1, Materialize: true,
	})
	if err != nil {
		return nil, err
	}
	if run.Degraded != nil {
		return nil, fmt.Errorf("reference run degraded to a certified top-%d", run.Degraded.CertifiedK)
	}
	return runOutcome(run, nil).scores, nil
}

// runOutcome extracts the checked and counted parts of an engine run.
func runOutcome(run *engine.Run, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{
		calls:      run.TotalCalls(),
		callsSaved: run.CallsSaved,
		halted:     run.Halted,
		simMS:      float64(run.Elapsed) / float64(time.Millisecond),
		scores:     make([]float64, len(run.Combinations)),
	}
	for i, c := range run.Combinations {
		o.scores[i] = c.Score
	}
	o.certified = len(o.scores)
	if run.Degraded != nil {
		o.degraded = true
		o.certified = run.Degraded.CertifiedK
	}
	for _, n := range run.Invocations {
		o.invocations += n
	}
	return o
}

func (d *direct) classes() []class { return d.cls }

func (d *direct) payload(c int) string {
	r := d.reqs[c]
	return fmt.Sprintf("k=%d inputs=%v plan=%s", r.res.Plan.K, r.inputs, r.res.Topology)
}

func (d *direct) do(ctx context.Context, client, c int, tr *reqTrace, root int) outcome {
	r := d.reqs[c]
	var i int
	if tr != nil {
		i = tr.begin("engine.execute", root)
		ctx = withSpan(ctx, tr, i)
	}
	run, err := r.engines[client].Execute(ctx, r.res.Annotated, engine.Options{
		Inputs: r.inputs, Weights: r.res.Query.Weights, TargetK: r.res.Plan.K,
		Parallelism: parallelism,
	})
	if tr != nil {
		tr.finish(i)
	}
	return runOutcome(run, err)
}

func (d *direct) sideCalls(c int) (float64, float64) {
	r := d.reqs[c]
	return timeCheck(r.res, plancheck.Exec{
		Weights: r.res.Query.Weights, TargetK: r.res.Plan.K, Streaming: true,
	}), 0
}

// timeCheck times the validation Execute performs before running a plan
// and returns microseconds.
func timeCheck(res *optimizer.Result, exec plancheck.Exec) float64 {
	t0 := time.Now()
	rep := plancheck.CheckAnnotated(res.Annotated)
	rep.Merge(plancheck.CheckExec(res.Plan, exec))
	us := float64(time.Since(t0)) / 1e3
	if err := rep.Err(); err != nil {
		panic(fmt.Sprintf("plan executed without error fails plancheck: %v", err))
	}
	return us
}

func (d *direct) wire() *wireCounters { return d.wc }

func (d *direct) close() {}
