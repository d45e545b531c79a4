package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// spanLayer charges each span name to the layer whose self time it is.
var spanLayer = map[string]string{
	"request":            "bench",
	"serve.wait":         "serve.wait",
	"serve.roundtrip":    "serve.transport",
	"serve.handler":      "serve.handler",
	"query.parse":        "query",
	"query.analyze":      "query",
	"optimizer.optimize": "optimizer",
	"engine.execute":     "engine",
	"service.invoke":     "service",
	"service.fetch":      "service",
}

// layers lists the self-time layers in report order.
var layers = []string{
	"bench", "serve.wait", "serve.transport", "serve.handler",
	"query", "optimizer", "engine", "service",
}

// dumpLimit bounds how many whole request traces a run keeps for the
// span dump; every traced request still feeds the per-layer totals.
const dumpLimit = 200

// traceStats folds completed request traces into per-layer self times
// and per-span-name call totals.
type traceStats struct {
	mu       sync.Mutex
	requests int64
	spans    int64
	selfNS   map[string]int64 // layer → summed self time
	count    map[string]int64 // span name → calls
	busyNS   map[string]int64 // span name → summed duration
	dump     []dumpedTrace
}

type dumpedTrace struct {
	Request int64  `json:"request"`
	Class   string `json:"class"`
	Spans   []span `json:"spans"`
}

func newTraceStats() *traceStats {
	return &traceStats{
		selfNS: map[string]int64{}, count: map[string]int64{}, busyNS: map[string]int64{},
	}
}

// fold adds one completed request trace. A layer's self time is the
// part of the union of its spans' intervals that no child span covers:
// |own ∪ children| − |children|. With every span nested in its parent,
// the layers' self times add up to the root span's duration.
func (s *traceStats) fold(t *reqTrace, class string) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	own := map[string][][2]int64{}
	kids := map[string][][2]int64{}
	for _, sp := range spans {
		iv := [2]int64{sp.Start, sp.End}
		own[spanLayer[sp.Name]] = append(own[spanLayer[sp.Name]], iv)
		if sp.Parent >= 0 {
			pl := spanLayer[spans[sp.Parent].Name]
			kids[pl] = append(kids[pl], iv)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.spans += int64(len(spans))
	for _, sp := range spans {
		s.count[sp.Name]++
		s.busyNS[sp.Name] += sp.End - sp.Start
	}
	for layer, ivs := range own {
		k := kids[layer]
		s.selfNS[layer] += unionLen(append(append([][2]int64(nil), ivs...), k...)) - unionLen(k)
	}
	if len(s.dump) < dumpLimit {
		s.dump = append(s.dump, dumpedTrace{Request: t.id, Class: class, Spans: spans})
	}
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = iv
			continue
		}
		if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	return total + cur[1] - cur[0]
}

// perQueryMS is a layer's mean self time per traced request.
func (s *traceStats) perQueryMS(layer string) float64 {
	if s.requests == 0 {
		return 0
	}
	return float64(s.selfNS[layer]) / float64(s.requests) / 1e6
}

// meanCallNS is the mean duration of one call to the named span.
func (s *traceStats) meanCallNS(name string) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return float64(s.busyNS[name]) / float64(s.count[name])
}

// writeDump writes the kept request traces as JSON.
func (s *traceStats) writeDump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(s.dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
