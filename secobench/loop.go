package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// slices is the number of equal parts a window is cut into. Rates,
// per-query costs and latency percentiles are computed per part and
// reported as the median over the parts, so a burst of contention from
// outside the process moves one part, not the result.
const slices = 5

// sliceTally is what one part of the window saw.
type sliceTally struct {
	attempted, ok int64
	lat           []float64 // untraced latencies, ms
}

// tally accumulates what one client saw; tallies merge after the run.
type tally struct {
	slice                               [slices]sliceTally
	attempted, ok                       int64
	failed, wrong, rejected, degraded   int64
	latUntraced, latTraced, wait, late  []float64 // ms
	sim                                 []float64 // ms
	calls, invocations, halted, results int64
	callsSaved                          float64
	explored, pruned                    int64
	respBytes                           int64
	admitted, shed                      int64
	checkUS, annotateUS                 float64
	sideN                               int64
}

func (t *tally) merge(o *tally) {
	for k := range t.slice {
		t.slice[k].attempted += o.slice[k].attempted
		t.slice[k].ok += o.slice[k].ok
		t.slice[k].lat = append(t.slice[k].lat, o.slice[k].lat...)
	}
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.wrong += o.wrong
	t.rejected += o.rejected
	t.degraded += o.degraded
	t.latUntraced = append(t.latUntraced, o.latUntraced...)
	t.latTraced = append(t.latTraced, o.latTraced...)
	t.wait = append(t.wait, o.wait...)
	t.late = append(t.late, o.late...)
	t.sim = append(t.sim, o.sim...)
	t.calls += o.calls
	t.invocations += o.invocations
	t.halted += o.halted
	t.results += o.results
	t.callsSaved += o.callsSaved
	t.explored += o.explored
	t.pruned += o.pruned
	t.respBytes += o.respBytes
	t.admitted += o.admitted
	t.shed += o.shed
	t.checkUS += o.checkUS
	t.annotateUS += o.annotateUS
	t.sideN += o.sideN
}

// observe checks one response, completed in part k of the window,
// against its class reference and counts it.
func (t *tally) observe(c class, o outcome, lat time.Duration, traced bool, k int) {
	t.attempted++
	t.slice[k].attempted++
	ms := float64(lat) / 1e6
	if traced {
		t.latTraced = append(t.latTraced, ms)
	} else {
		t.latUntraced = append(t.latUntraced, ms)
		t.slice[k].lat = append(t.slice[k].lat, ms)
	}
	switch {
	case o.err != nil:
		t.failed++
		return
	case o.rejected:
		t.rejected++
		return
	}
	switch o.tier {
	case "admit":
		t.admitted++
	case "degrade":
		t.shed++
	}
	if !matches(c.ref, o) {
		t.wrong++
	} else if o.degraded {
		t.degraded++
	} else {
		t.ok++
		t.slice[k].ok++
	}
	t.sim = append(t.sim, o.simMS)
	t.calls += o.calls
	t.invocations += o.invocations
	t.callsSaved += o.callsSaved
	if o.halted {
		t.halted++
	}
	t.results += int64(len(o.scores))
	t.explored += int64(o.explored)
	t.pruned += int64(o.pruned)
	t.respBytes += int64(o.respBytes)
}

// side times the implicit layer calls of a traced request's class.
func (t *tally) side(tg target, c int) {
	check, annotate := tg.sideCalls(c)
	t.checkUS += check
	t.annotateUS += annotate
	t.sideN++
}

// window is one measured interval: its tally, the resource snapshots
// at its start, part boundaries and end, and the live heap after it.
type window struct {
	tally
	bounds    [slices + 1]resources
	heapInuse uint64
	traces    *traceStats
}

// resources is a snapshot of the process's cumulative resource use.
type resources struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

func snapshot() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return resources{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC}
}

// usage is the resource use between two snapshots.
type usage struct {
	wall, cpu             time.Duration
	mallocs, bytes, numGC uint64
}

func (r resources) since(a resources) usage {
	return usage{
		wall: r.at.Sub(a.at), cpu: r.cpu - a.cpu,
		mallocs: r.mallocs - a.mallocs, bytes: r.bytes - a.bytes, numGC: uint64(r.numGC - a.numGC),
	}
}

// part is the resource use over part k of the window.
func (w *window) part(k int) usage { return w.bounds[k+1].since(w.bounds[k]) }

// whole is the resource use over the window.
func (w *window) whole() usage { return w.bounds[slices].since(w.bounds[0]) }

// open takes the start snapshot and schedules the part-boundary
// snapshots; the returned function waits for them.
func (w *window) open(dur time.Duration) (start time.Time, wait func()) {
	w.bounds[0] = snapshot()
	start = w.bounds[0].at
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k < slices; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / slices)))
			w.bounds[k] = snapshot()
		}
	}()
	return start, func() { <-done }
}

// sliceOf is the part of the window a request completing at t counts in;
// requests completing after the window end count in the last part.
func sliceOf(start, t time.Time, dur time.Duration) int {
	k := int(t.Sub(start) * slices / dur)
	if k >= slices {
		return slices - 1
	}
	return k
}

func (w *window) close(wait func()) {
	wait()
	w.bounds[slices] = snapshot()
	// Live heap after forced collections, with the set-up state (worlds,
	// plans, engines, caches) still reachable. The second collection
	// empties the sync.Pool victim caches the first one filled.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapInuse = ms.HeapInuse
}

// startTrace opens a traced request's root span at start.
func startTrace(traces *traceStats, id int64, start time.Time) (*reqTrace, int) {
	if traces == nil {
		return nil, -1
	}
	tr := newReqTrace(id)
	return tr, tr.record("request", int64(start.Sub(epoch)), 0, -1)
}

func endTrace(traces *traceStats, tr *reqTrace, root int, end time.Time, name string) {
	tr.mu.Lock()
	tr.spans[root].End = int64(end.Sub(epoch))
	tr.mu.Unlock()
	traces.fold(tr, name)
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until dur has passed. With traceMode every
// second request of a client is traced.
func closedLoop(tg target, seed int64, clients int, dur time.Duration, traceMode bool) *window {
	w := &window{}
	if traceMode {
		w.traces = newTraceStats()
	}
	classes := tg.classes()
	tallies := make([]tally, clients)
	start, wait := w.open(dur)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			p := newPicker(classes, seed, c)
			ctx := context.Background()
			for n := int64(0); time.Now().Before(deadline); n++ {
				ci := p.next()
				traced := traceMode && n%2 == 1
				var tr *reqTrace
				root := -1
				t0 := time.Now()
				if traced {
					tr, root = startTrace(w.traces, int64(c)<<40|n, t0)
				}
				o := tg.do(ctx, c, ci, tr, root)
				t1 := time.Now()
				if traced {
					endTrace(w.traces, tr, root, t1, classes[ci].name)
					t.side(tg, ci)
				}
				t.observe(classes[ci], o, t1.Sub(t0), traced, sliceOf(start, t1, dur))
			}
		}(c)
	}
	wg.Wait()
	for i := range tallies {
		w.merge(&tallies[i])
	}
	w.close(wait)
	return w
}

// job is one open-loop request: its sequence number, class and the time
// it was due.
type job struct {
	n    int64
	c    int
	due  time.Time
	late time.Duration
}

// openLoop sends requests on a fixed schedule at rate per second for dur,
// whether or not earlier requests have completed, over conns connections.
// A request's latency runs from when it was due, so a stall also charges
// the requests queued behind it.
func openLoop(tg target, seed int64, conns int, rate float64, dur time.Duration, traceMode bool) *window {
	w := &window{}
	if traceMode {
		w.traces = newTraceStats()
	}
	classes := tg.classes()
	total := int(rate * dur.Seconds())
	// Sized to the number of sends, so the dispatcher never blocks on a
	// backlog and keeps to its schedule.
	jobs := make(chan job, total)
	tallies := make([]tally, conns)
	start, wait := w.open(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			ctx := context.Background()
			for j := range jobs {
				traced := traceMode && j.n%2 == 1
				var tr *reqTrace
				root := -1
				send := time.Now()
				if traced {
					tr, root = startTrace(w.traces, j.n, j.due)
					tr.record("serve.wait", int64(j.due.Sub(epoch)), int64(send.Sub(epoch)), root)
				}
				o := tg.do(ctx, c, j.c, tr, root)
				end := time.Now()
				if traced {
					endTrace(w.traces, tr, root, end, classes[j.c].name)
					t.side(tg, j.c)
				}
				t.wait = append(t.wait, float64(send.Sub(j.due))/1e6)
				t.late = append(t.late, float64(j.late)/1e6)
				t.observe(classes[j.c], o, end.Sub(j.due), traced, sliceOf(start, end, dur))
			}
		}(c)
	}
	p := newPicker(classes, seed, 0)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{n: int64(i), c: p.next(), due: due, late: time.Since(due)}
	}
	close(jobs)
	wg.Wait()
	for i := range tallies {
		w.merge(&tallies[i])
	}
	w.close(wait)
	return w
}
