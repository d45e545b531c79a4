package main

import (
	"fmt"

	"seco/internal/core"
	"seco/internal/mart"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// scenario is one of the repository's built-in worlds, at the size the
// experiments use (the dense E15 movie world for movienight).
type scenario struct {
	name  string
	text  string
	build func(seed int64) (*core.System, map[string]types.Value, error)
}

// scenarios lists the four worlds topk-stream mixes.
var scenarios = []scenario{
	{"movienight", query.RunningExampleText, movieNight},
	{"conftravel", query.TravelExampleText, confTravel},
	{"triangle", query.TriangleExampleText, func(seed int64) (*core.System, map[string]types.Value, error) {
		return triangle(synth.TriangleConfig{Seed: seed, Rows: 120})
	}},
	{"triangle-zipf", query.TriangleExampleText, func(seed int64) (*core.System, map[string]types.Value, error) {
		return triangle(synth.TriangleConfig{Seed: seed, Rows: 120, Skew: 2})
	}},
}

func movieNight(seed int64) (*core.System, map[string]types.Value, error) {
	reg, err := mart.MovieScenario()
	if err != nil {
		return nil, nil, err
	}
	w, err := synth.NewMovieWorld(reg, synth.MovieConfig{
		Seed: seed, Movies: 200, Theatres: 50, TitlesPerTheatre: 16,
	})
	if err != nil {
		return nil, nil, err
	}
	return bind(reg, w.Inputs, w.Movies, w.Theatres, w.Restaurants)
}

func confTravel(seed int64) (*core.System, map[string]types.Value, error) {
	reg, err := mart.TravelScenario()
	if err != nil {
		return nil, nil, err
	}
	w, err := synth.NewTravelWorld(reg, synth.TravelConfig{
		Seed: seed, ConferencesPerTopic: 20, FlightsPerCity: 40, HotelsPerCity: 40,
	})
	if err != nil {
		return nil, nil, err
	}
	return bind(reg, w.Inputs, w.Conferences, w.Weather, w.Flights, w.Hotels)
}

func triangle(cfg synth.TriangleConfig) (*core.System, map[string]types.Value, error) {
	reg, err := mart.TriangleScenario()
	if err != nil {
		return nil, nil, err
	}
	w, err := synth.NewTriangleWorld(reg, cfg)
	if err != nil {
		return nil, nil, err
	}
	return bind(reg, w.Inputs, w.Festivals, w.Artists, w.Venues, w.Promoters)
}

func bind(reg *mart.Registry, inputs map[string]types.Value, tables ...*service.Table) (*core.System, map[string]types.Value, error) {
	sys := core.NewSystemWith(reg)
	for _, t := range tables {
		if err := sys.Bind(t); err != nil {
			return nil, nil, fmt.Errorf("bind %s: %w", t.Interface().Name, err)
		}
	}
	return sys, inputs, nil
}
