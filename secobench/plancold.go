package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"seco/internal/cost"
	"seco/internal/engine"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
)

// maxPlannedOutput admits a generated query to the pool only when every
// plan the optimizer may return for it is annotated to produce at most
// this many combinations. The rest are execution workloads, not planning
// ones: when this benchmark was written, some of their pull runs took
// over 5 s (up to 69 s) against milliseconds of planning, and a pool
// holding one of them spends the run executing it.
//
// The optimizer may return any of several plans for one query. Plans of
// equal cost are common, and their costs are float sums whose rounding
// varies between runs, so its pick among them does too; two picks'
// annotated outputs can differ by 10⁴ and more. Admission therefore looks
// at the worst output over all the optimum's ties (optimumTies), so the
// corpus seed alone decides the pool.
const maxPlannedOutput = 1e5

// maxTopologies leaves out a generated query whose plan space holds more
// topologies than this. Enumerating the ties of such a query costs up to
// a third of a second, and when this benchmark was written fewer than 1
// in 20 of them passed maxPlannedOutput: their optimum ties hundreds of
// plans, some of huge output.
const maxTopologies = 300

// costTol is the relative difference under which two plan costs are the
// same cost. It is far above the rounding of the cost sums and far below
// any real difference between plans.
const costTol = 1e-9

// coldQuery is one plan-cold class: a generated world and query, the
// optimum's cost and whether it meets K, found by exhaustive search at
// set-up, and one plan optimized at set-up, for the side calls.
type coldQuery struct {
	wl       *synth.Workload
	k        int
	services map[string]service.Service
	res      *optimizer.Result
	cost     float64
	meetsK   bool
}

type planCold struct {
	cls []class
	qs  []coldQuery
	wc  *wireCounters
}

// poolQuota fixes how many queries of the pool plan-cold cycles through
// fall in each stratum of service count (rows: 4, 5, 6) and planning
// work (columns: plans costed plus prefixes pruned under 8, 8–31,
// 32–127, 128 and over); 247 in all. The counts follow the mix of 1000
// draws of each of seeds 1–7 when this benchmark was written, scaled to
// 640 draws and cut to about 80% of the thinnest seed's count. Queries
// whose optimum ties plans of large output are the ones with the most
// planning work, so few of those pass maxPlannedOutput and the last
// column is thin. Nothing is cached between requests (each re-parses,
// re-optimizes and runs on a fresh engine); the pool size only bounds
// the set-up cost of the reference answers.
var poolQuota = [3][4]int{
	{60, 52, 0, 0},
	{12, 44, 24, 0},
	{1, 16, 32, 6},
}

// corpusSeed seeds the random queries the pool is drawn from. It is the
// same for every run: the run seed orders the requests, not the pool.
// Drawn per run seed, stratified pools still differed by 0.15 (IQR over
// median, 24 seeds) in the mix's mean simulated time per query, and a
// random 10 of those seeds by up to 0.24: the simulated time of random
// queries is heavy-tailed, and each pool's 5 heaviest queries carried
// 10–40% of its mean. A run then measured its seed's pool more than the
// program. A fixed corpus is what query benchmarks use for the same
// reason. corpusSeed 1 was the first seed tried; its pool's mean sits
// near the middle of the 24.
const corpusSeed = 1

// stratum returns the poolQuota column of an optimization.
func stratum(res *optimizer.Result) int {
	switch work := res.Explored + res.Pruned; {
	case work < 8:
		return 0
	case work < 32:
		return 1
	case work < 128:
		return 2
	}
	return 3
}

// newPlanCold draws the pool of synth.RandomWorkload queries with 4 to 6
// services and K in 1–10 from corpusSeed: it screens draws until
// poolQuota is full, filling it in draw order, and computes the reference
// answers of the queries it keeps. The run seed only orders the requests.
//
// Each query's weight in the request mix is inverse to its work: plans
// costed and prefixes pruned by the optimizer, plus the optimum's
// annotated service calls. Every pool query then takes a similar share
// of busy time; drawn uniformly, the pool's few heaviest queries would
// decide the run's mean. The weight uses only quantities that are the
// same in every set-up: the calls an engine run makes vary with goroutine
// scheduling, even with one worker, and the optimum's cost does not
// depend on which tie the optimizer picks. Plans costed and prefixes
// pruned, unlike the pick, came out the same in 12 optimizations of each
// of 1100 generated queries when this benchmark was written.
func newPlanCold(_ int64, traced bool) (target, error) {
	p := &planCold{}
	var deco *decorator
	if traced {
		p.wc = &wireCounters{}
		deco = newDecorator(p.wc)
	}
	left, wanted := poolQuota, 0
	for _, row := range poolQuota {
		for _, q := range row {
			wanted += q
		}
	}
	rng := rand.New(rand.NewSource(corpusSeed))
	var pool []*coldCand
	// Candidates are screened in parallel batches and admitted in draw
	// order, so the pool does not depend on scheduling.
	const batch = 64
	for first := 0; len(pool) < wanted; first += batch {
		if first > 50*wanted {
			return nil, fmt.Errorf("pool quotas unfilled after %d candidates", first)
		}
		cands := make([]*coldCand, batch)
		ns, kk := make([]int, batch), make([]int, batch)
		for j := range cands {
			ns[j], kk[j] = 4+(first+j)%3, 1+rng.Intn(10)
		}
		err := parallel(batch, func(j int) error {
			i := first + j
			c, err := screenCandidate(corpusSeed*1_000_003+int64(i), ns[j], kk[j])
			if err != nil {
				return fmt.Errorf("pool query %d: %w", i, err)
			}
			if c != nil {
				c.name = fmt.Sprintf("random%d/n%d/k%d", i, ns[j], kk[j])
			}
			cands[j] = c
			return nil
		})
		if err != nil {
			return nil, err
		}
		for j, c := range cands {
			if c == nil {
				continue
			}
			if st := stratum(c.res); left[ns[j]-4][st] > 0 {
				left[ns[j]-4][st]--
				pool = append(pool, c)
			}
		}
	}
	p.qs = make([]coldQuery, len(pool))
	p.cls = make([]class, len(pool))
	err := parallel(len(pool), func(i int) error {
		c := pool[i]
		services := c.wl.Services()
		ref, err := reference(services, c.res.Annotated, c.res.Query.Weights, c.wl.Inputs)
		if err != nil {
			return fmt.Errorf("%s reference: %w", c.name, err)
		}
		if deco != nil {
			for alias, svc := range services {
				services[alias] = deco.wrap(svc)
			}
		}
		// Shifted down by costTol, an optimum of a whole number of calls
		// rounds up to that number in every set-up.
		calls := int(math.Ceil(c.cost * (1 - costTol)))
		work := 16 + c.res.Explored + c.res.Pruned + calls
		p.cls[i] = class{name: c.name, weight: 1 + 100_000/work, ref: ref}
		p.qs[i] = coldQuery{wl: c.wl, k: c.k, services: services, res: c.res, cost: c.cost, meetsK: c.meetsK}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// coldCand is a screened query that passed maxPlannedOutput: its
// optimization at set-up, and the optimum's cost and whether it meets K
// as the exhaustive search found them.
type coldCand struct {
	name   string
	wl     *synth.Workload
	k      int
	res    *optimizer.Result
	cost   float64
	meetsK bool
}

// screenCandidate generates one random query and optimizes it. It returns
// nil for a query with more than maxTopologies topologies or one of whose
// optimal plans exceeds maxPlannedOutput.
func screenCandidate(wseed int64, n, k int) (*coldCand, error) {
	wl, err := synth.RandomWorkload(wseed, n)
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(wl.QueryText)
	if err != nil {
		return nil, err
	}
	if err := q.Analyze(wl.Registry); err != nil {
		return nil, err
	}
	topos, err := optimizer.EnumerateTopologies(q)
	if err != nil || len(topos) > maxTopologies {
		return nil, err
	}
	opt := coldOptions(wl, k)
	res, err := optimizer.Optimize(q, wl.Registry, opt)
	if err != nil {
		return nil, err
	}
	// The pick should be one of the ties: over the cap, so is the worst of
	// them.
	if res.Annotated.Output() > maxPlannedOutput {
		return nil, nil
	}
	ties, best, err := optimumTies(q, topos, opt)
	if err != nil || len(ties) == 0 {
		return nil, err
	}
	for _, a := range ties {
		if a.Output() > maxPlannedOutput {
			return nil, nil
		}
	}
	return &coldCand{wl: wl, k: k, res: res, cost: best, meetsK: ties[0].MeetsK()}, nil
}

// optimumTies builds every complete plan of q, the binary and n-ary
// variants of each of its topologies, with fetches chosen as the
// optimizer chooses them. It returns the optimum's cost and, in
// enumeration order, the plans the optimizer ranks equal to it: those
// as cheap within costTol among the plans that meet K, or among all
// plans when none does. These are the plans Optimize may return for q.
// The search is exhaustive, so the optimum does not rest on the
// optimizer's pruning.
func optimumTies(q *query.Query, topos []optimizer.Topology, opt optimizer.Options) ([]*plan.Annotated, float64, error) {
	var all []*plan.Annotated
	for _, t := range topos {
		p, err := optimizer.BuildPlan(q, t, opt.Stats, opt.K, false)
		if err != nil {
			return nil, 0, err
		}
		variants := []*plan.Plan{p}
		mp, used, err := optimizer.BuildPlanMultiway(q, t, opt.Stats, opt.K, false)
		if err != nil {
			return nil, 0, err
		}
		if used {
			variants = append(variants, mp)
		}
		for _, p := range variants {
			a, err := optimizer.ChooseFetches(p, opt.Metric, opt.Heuristics.Fetch)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, a)
		}
	}
	meets := false
	for _, a := range all {
		meets = meets || a.MeetsK()
	}
	best := math.Inf(1)
	for _, a := range all {
		if a.MeetsK() == meets {
			best = math.Min(best, opt.Metric.Cost(a))
		}
	}
	var ties []*plan.Annotated
	for _, a := range all {
		if a.MeetsK() == meets && opt.Metric.Cost(a) <= best*(1+costTol) {
			ties = append(ties, a)
		}
	}
	return ties, best, nil
}

func coldOptions(wl *synth.Workload, k int) optimizer.Options {
	return optimizer.Options{K: k, Metric: cost.RequestResponse{}, Stats: wl.Stats, FixedInterfaces: true}
}

func (p *planCold) classes() []class { return p.cls }

func (p *planCold) payload(c int) string {
	return fmt.Sprintf("k=%d %s", p.qs[c].k, p.qs[c].wl.QueryText)
}

// do runs the plan-cache-miss path: Parse → Analyze → Optimize → pull
// Execute on a fresh engine.
func (p *planCold) do(ctx context.Context, _, c int, tr *reqTrace, root int) outcome {
	cq := p.qs[c]
	sp := func(name string) int {
		if tr == nil {
			return 0
		}
		return tr.begin(name, root)
	}
	end := func(i int) {
		if tr != nil {
			tr.finish(i)
		}
	}
	i := sp("query.parse")
	q, err := query.Parse(cq.wl.QueryText)
	end(i)
	if err != nil {
		return outcome{err: err}
	}
	i = sp("query.analyze")
	err = q.Analyze(cq.wl.Registry)
	end(i)
	if err != nil {
		return outcome{err: err}
	}
	i = sp("optimizer.optimize")
	res, err := optimizer.Optimize(q, cq.wl.Registry, coldOptions(cq.wl, cq.k))
	end(i)
	if err != nil {
		return outcome{err: err}
	}
	// A plan that is not one of the optimum's ties is a wrong answer.
	// Any tie may come back; they all give the same top-k scores, which
	// the reference holds, so the plan just returned is the one executed.
	if res.Annotated.MeetsK() != cq.meetsK || math.Abs(res.Cost-cq.cost) > costTol*cq.cost {
		return outcome{err: fmt.Errorf("optimizer returned a plan of cost %g (meets K: %v); the optimum costs %g (meets K: %v)",
			res.Cost, res.Annotated.MeetsK(), cq.cost, cq.meetsK)}
	}
	eng := engine.NewWithConfig(cq.services, engine.Config{})
	i = sp("engine.execute")
	run, err := eng.Execute(withSpan(ctx, tr, i), res.Annotated, engine.Options{
		Inputs: cq.wl.Inputs, Weights: res.Query.Weights, TargetK: res.Plan.K,
		Parallelism: parallelism,
	})
	end(i)
	o := runOutcome(run, err)
	o.explored, o.pruned = res.Explored, res.Pruned
	return o
}

func (p *planCold) sideCalls(c int) (float64, float64) {
	res := p.qs[c].res
	check := timeCheck(res, plancheck.Exec{
		Weights: res.Query.Weights, TargetK: res.Plan.K, Streaming: true,
	})
	t0 := nowNS()
	if _, err := plan.Annotate(res.Plan, res.Annotated.Fetches); err != nil {
		panic(fmt.Sprintf("re-annotating an optimized plan: %v", err))
	}
	return check, float64(nowNS()-t0) / 1e3
}

func (p *planCold) wire() *wireCounters { return p.wc }

func (p *planCold) close() {}
