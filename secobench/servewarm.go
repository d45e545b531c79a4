package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"seco/internal/admission"
	"seco/internal/core"
	"seco/internal/optimizer"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/serve"
	"seco/internal/service"
	"seco/internal/types"
)

// serveRate is serve-warm's fixed offered load in requests per second,
// about a third of what two closed-loop connections complete on the seed
// commit (2 vCPU). At 400 req/s queueing behind the slowest conftravel
// runs made the latency tail swing with the seed.
const serveRate = 250

// serveWorlds is the number of seeded worlds, each behind its own
// serve.Server, per served scenario.
const serveWorlds = 16

// serveDeadline is every request's deadline. Conftravel needs 10–30 s of
// simulated time and the servers share one virtual clock per world, so
// the deadline, the admission cap and the tenant rates are set high
// enough that nothing is shed: serve-warm measures the admitted path.
const serveDeadline = time.Hour

// servedScenarios are the worlds serve.New knows, with the constructors
// that rebuild the same world for the reference answers.
var servedScenarios = []struct {
	name, text string
	build      func(int64) (*core.System, map[string]types.Value, error)
}{
	{"movienight", query.RunningExampleText, core.MovieNight},
	{"conftravel", query.TravelExampleText, core.ConfTravel},
	{"triangle", query.TriangleExampleText, core.Triangle},
}

// serveReq is one served class: the path of its server and the request
// body, plus the plan the server caches for it (for the side calls).
type serveReq struct {
	path string
	body []byte
	exec plancheck.Exec
	res  *optimizer.Result
}

type serveWarm struct {
	cls     []class
	reqs    []serveReq
	servers []*serve.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	conns   []*http.Client
	reg     *traceRegistry
	wc      *wireCounters
}

func newServeWarm(seed int64, traced bool) (target, error) {
	s := &serveWarm{done: make(chan struct{})}
	var deco *decorator
	mux := http.NewServeMux()
	if traced {
		s.wc = &wireCounters{}
		deco = newDecorator(s.wc)
		s.reg = &traceRegistry{}
	}
	// One unit per (scenario, world), built in parallel and registered in
	// order, so the class list does not depend on scheduling.
	type unit struct {
		srv     *serve.Server
		handler http.Handler
		prefix  string
		cls     []class
		reqs    []serveReq
	}
	units := make([]unit, len(servedScenarios)*serveWorlds)
	err := parallel(len(units), func(i int) error {
		si, w := i/serveWorlds, i%serveWorlds
		sc := servedScenarios[si]
		u := &units[i]
		wseed := worldSeed(seed, si, w)
		cfg := serve.Config{
			Scenario: sc.name, Seed: wseed, Parallelism: parallelism, CacheCalls: true,
			Admission: admission.Config{
				TenantRate: 1e9, MaxDeadline: serveDeadline, DefaultDeadline: serveDeadline,
			},
		}
		if deco != nil {
			cfg.Wrap = func(_ string, svc service.Service) service.Service { return deco.wrap(svc) }
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return fmt.Errorf("%s server %d: %w", sc.name, w, err)
		}
		u.srv, u.handler = srv, srv.Handler()
		if traced {
			u.handler = s.reg.tracedHandler(u.handler)
		}
		u.prefix = fmt.Sprintf("/%s/w%d", sc.name, w)
		sys, inputs, err := sc.build(wseed)
		if err != nil {
			return err
		}
		q, err := sys.Parse(sc.text)
		if err != nil {
			return err
		}
		for ki, k := range ks {
			res, err := sys.Plan(q, core.PlanOptions{K: k})
			if err != nil {
				return err
			}
			services, err := bindAliases(sys, res)
			if err != nil {
				return err
			}
			ref, err := reference(services, res.Annotated, res.Query.Weights, inputs)
			if err != nil {
				return err
			}
			body, err := json.Marshal(map[string]any{
				"k": k, "deadline_ms": serveDeadline.Milliseconds(), "tenant": "bench",
			})
			if err != nil {
				return err
			}
			u.cls = append(u.cls, class{name: fmt.Sprintf("%s/w%d/k%d", sc.name, w, k), weight: mixWeights[sc.name][ki], ref: ref})
			u.reqs = append(u.reqs, serveReq{
				path: u.prefix + "/query", body: body, res: res,
				exec: plancheck.Exec{Weights: res.Query.Weights, TargetK: res.Plan.K, Streaming: true, Degrade: true},
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		s.servers = append(s.servers, u.srv)
		mux.Handle(u.prefix+"/", http.StripPrefix(u.prefix, u.handler))
		s.cls = append(s.cls, u.cls...)
		s.reqs = append(s.reqs, u.reqs...)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once close shuts it down; a
		// listener failure before that fails the warm-up requests.
		_ = s.hs.Serve(ln)
	}()
	for c := 0; c < cpus; c++ {
		// One keep-alive connection per CPU: the open loop uses at most
		// nproc connections.
		s.conns = append(s.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// Warm every plan key and the Share memo before the first timed
	// request; a failed warm-up request fails the set-up.
	for c := range s.cls {
		o := s.do(context.Background(), 0, c, nil, -1)
		if o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", s.cls[c].name, o.err)
		}
	}
	return s, nil
}

func (s *serveWarm) classes() []class { return s.cls }

func (s *serveWarm) payload(c int) string {
	return "POST " + s.reqs[c].path + " " + string(s.reqs[c].body)
}

// serveResponse is the part of the POST /query payload the benchmark
// checks.
type serveResponse struct {
	Tier         string    `json:"tier"`
	ElapsedMS    float64   `json:"elapsed_ms"`
	Halted       bool      `json:"halted"`
	CertifiedK   int       `json:"certified_k"`
	Degraded     *struct{} `json:"degraded"`
	Combinations []struct {
		Score float64 `json:"score"`
	} `json:"combinations"`
}

func (s *serveWarm) do(ctx context.Context, client, c int, tr *reqTrace, root int) outcome {
	r := s.reqs[c]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	var i int
	if tr != nil {
		i = tr.begin("serve.roundtrip", root)
		req.Header.Set(hdrReq, strconv.FormatInt(tr.id, 10))
		req.Header.Set(hdrSpan, strconv.Itoa(i))
		s.reg.put(tr)
		defer s.reg.drop(tr)
	}
	resp, err := s.conns[client].Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if tr != nil {
		tr.finish(i)
	}
	if err != nil {
		return outcome{err: err}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return outcome{rejected: true, tier: "reject", respBytes: len(body)}
	default:
		return outcome{err: fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))}
	}
	var sr serveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return outcome{err: err}
	}
	o := outcome{
		tier: sr.Tier, halted: sr.Halted, simMS: sr.ElapsedMS, respBytes: len(body),
		degraded: sr.Degraded != nil, certified: sr.CertifiedK,
		scores: make([]float64, len(sr.Combinations)),
	}
	for i, cb := range sr.Combinations {
		o.scores[i] = cb.Score
	}
	return o
}

func (s *serveWarm) sideCalls(c int) (float64, float64) {
	r := s.reqs[c]
	return timeCheck(r.res, r.exec), 0
}

// engineCalls sums the servers' engine-side call counters.
func (s *serveWarm) engineCalls() (calls, invocations int64) {
	for _, srv := range s.servers {
		for name, v := range srv.Metrics().Counters() {
			switch {
			case strings.HasPrefix(name, "seco.invoker.fetches."):
				calls += v
			case strings.HasPrefix(name, "seco.invoker.invocations."):
				invocations += v
			}
		}
	}
	return calls, invocations
}

// planCache sums the servers' plan-cache counters.
func (s *serveWarm) planCache() (hits, misses int64) {
	for _, srv := range s.servers {
		m := srv.Metrics().Counters()
		hits += m["seco.serve.plan_cache.hits"]
		misses += m["seco.serve.plan_cache.misses"]
	}
	return hits, misses
}

func (s *serveWarm) wire() *wireCounters { return s.wc }

// close stops the listener and waits for the server goroutine to exit.
func (s *serveWarm) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close() // connections still active after the grace period
	}
	<-s.done
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
	s.hs = nil
}
