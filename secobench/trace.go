package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seco/internal/mart"
	"seco/internal/service"
)

// The traced run records spans from the benchmark's own code around every
// call into a layer's public entry point. A span belongs to one request;
// the request's spans stay in memory until the request completes, when
// they are folded into per-layer totals (and the first few requests are
// kept whole for the span dump written at the end of the run).

// epoch anchors span timestamps; monotonic time.Since keeps them steady.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// span is one timed call: its name (layer.operation), start and end in
// nanoseconds since epoch, and the index of its parent span in the same
// request (-1 for the request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// reqTrace collects the spans of one request. Service fetches of one run
// may be issued from several goroutines, so appends are locked.
type reqTrace struct {
	id    int64
	mu    sync.Mutex
	spans []span
}

func newReqTrace(id int64) *reqTrace {
	return &reqTrace{id: id, spans: make([]span, 0, 16)}
}

// begin opens a span under parent and returns its index.
func (t *reqTrace) begin(name string, parent int) int {
	start := nowNS()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// finish closes span i.
func (t *reqTrace) finish(i int) {
	end := nowNS()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a span whose bounds were measured by the caller.
func (t *reqTrace) record(name string, start, end int64, parent int) int {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// spanCtx is the context value naming the open span new spans nest under.
type spanCtx struct {
	t      *reqTrace
	parent int
}

type spanKey struct{}

func withSpan(ctx context.Context, t *reqTrace, parent int) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanCtx{t, parent})
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	return sc, ok
}

// timedService decorates a substrate service (a service.Table): it counts
// every wire Fetch and, when the call's context carries a request trace,
// records a service.invoke or service.fetch span. It
// forwards Interface, Stats and Unwrap, so chain walkers such as
// service.InstallTimeSource see through it.
type timedService struct {
	inner service.Service
	c     *wireCounters
}

// wireCounters are the substrate-side call counts shared by every
// decorator of one run.
type wireCounters struct {
	fetches, tuples atomic.Int64
}

func (s *timedService) Interface() *mart.Interface { return s.inner.Interface() }
func (s *timedService) Stats() service.Stats       { return s.inner.Stats() }
func (s *timedService) Unwrap() service.Service    { return s.inner }

func (s *timedService) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	sc, traced := spanFrom(ctx)
	var i int
	if traced {
		i = sc.t.begin("service.invoke", sc.parent)
	}
	inv, err := s.inner.Invoke(ctx, in)
	if traced {
		sc.t.finish(i)
	}
	if err != nil {
		return nil, err
	}
	return &timedInvocation{inner: inv, c: s.c}, nil
}

type timedInvocation struct {
	inner service.Invocation
	c     *wireCounters
}

func (v *timedInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	sc, traced := spanFrom(ctx)
	var i int
	if traced {
		i = sc.t.begin("service.fetch", sc.parent)
	}
	ch, err := v.inner.Fetch(ctx)
	if traced {
		sc.t.finish(i)
	}
	if err == nil {
		v.c.fetches.Add(1)
		v.c.tuples.Add(int64(len(ch.Tuples)))
	}
	return ch, err
}

// decorator returns one timedService per underlying service, so aliases
// bound to the same service keep sharing one service.Share layer.
type decorator struct {
	c    *wireCounters
	mu   sync.Mutex
	done map[service.Service]service.Service
}

func newDecorator(c *wireCounters) *decorator {
	return &decorator{c: c, done: map[service.Service]service.Service{}}
}

func (d *decorator) wrap(svc service.Service) service.Service {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.done[svc]; ok {
		return w
	}
	w := &timedService{inner: svc, c: d.c}
	d.done[svc] = w
	return w
}

// Headers carrying a traced request's identity across the loopback hop.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// traceRegistry maps in-flight traced request IDs to their traces, so
// the server-side handler wrapper can attach its spans.
type traceRegistry struct{ m sync.Map }

func (r *traceRegistry) put(t *reqTrace)  { r.m.Store(t.id, t) }
func (r *traceRegistry) drop(t *reqTrace) { r.m.Delete(t.id) }

// tracedHandler wraps a server's handler: for a request that names a
// registered trace it records a serve.handler span around ServeHTTP and
// passes the span down the request context, where the service decorator
// finds it.
func (r *traceRegistry) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err1 := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
		parent, err2 := strconv.Atoi(req.Header.Get(hdrSpan))
		v, ok := r.m.Load(id)
		if err1 != nil || err2 != nil || !ok {
			h.ServeHTTP(w, req)
			return
		}
		t := v.(*reqTrace)
		i := t.begin("serve.handler", parent)
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), t, i)))
		t.finish(i)
	})
}
