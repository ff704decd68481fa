package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// workloadsJSON fixes every workload's graph, labeling, container,
// traffic mix, offered rates, capacity search and latency limit. The file
// is part of the benchmark: a change to it is a change to the
// benchmark, never to the program under test.
//
//go:embed workloads.json
var workloadsJSON []byte

// graphSpec names a generator and its size.
type graphSpec struct {
	Kind   string `json:"kind"` // "gnm" (gen.Gnm) or "road" (gen.RoadLike)
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
	Period int    `json:"period,omitempty"`
}

// search fixes the capacity search: it offers rates within
// [FromQPS, ToQPS], starts at StartQPS and probes Probes times.
type search struct {
	FromQPS  float64 `json:"from_qps"`
	ToQPS    float64 `json:"to_qps"`
	StartQPS float64 `json:"start_qps"`
	Probes   int     `json:"probes"`
}

// workload is one named benchmark input: what is built, how it is
// served and what traffic reaches it.
type workload struct {
	Name  string    `json:"-"`
	Graph graphSpec `json:"graph"`
	// Order is the PLL landmark order: "degree" (pll.OrderByName) or
	// "highway" (pll.RoadHighwayOrder, road graphs only).
	Order string `json:"order"`
	// Container is "v3" (aligned, expanded) or "v4" (compact); both are
	// served zero-copy through index.LoadMmap.
	Container string `json:"container"`
	// Dist is the distance-pair law: "uniform", or "zipf" over a pool
	// of ZipfPool distinct pairs with exponent ZipfAlpha.
	Dist      string  `json:"dist"`
	ZipfAlpha float64 `json:"zipf_alpha,omitempty"`
	ZipfPool  int     `json:"zipf_pool,omitempty"`
	// Sources is the number of vertices with a precomputed reference
	// search; every pair has one endpoint among them.
	Sources int `json:"sources"`
	// Setups is how many times a run repeats the whole set-up; setup_s
	// is their median.
	Setups   int     `json:"setups"`
	LightQPS float64 `json:"light_qps"`
	HeavyQPS float64 `json:"heavy_qps"`
	Search   search  `json:"search"`
	// P90LimitUS is the latency limit of the capacity search, on the
	// distance p90.
	P90LimitUS float64 `json:"p90_limit_us"`
}

// loadWorkloads parses and checks a workload table.
func loadWorkloads(data []byte) (map[string]*workload, error) {
	var ws map[string]*workload
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("workloads: %w", err)
	}
	for name, w := range ws {
		w.Name = name
		if err := w.check(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return ws, nil
}

func (w *workload) check() error {
	switch {
	case w.Graph.Kind != "gnm" && w.Graph.Kind != "road":
		return fmt.Errorf("unknown graph kind %q", w.Graph.Kind)
	case w.Order != "degree" && w.Order != "highway":
		return fmt.Errorf("unknown order %q", w.Order)
	case w.Order == "highway" && w.Graph.Kind != "road":
		return fmt.Errorf("the highway order needs a road graph")
	case w.Container != "v3" && w.Container != "v4":
		return fmt.Errorf("unknown container %q", w.Container)
	case w.Dist != "uniform" && w.Dist != "zipf":
		return fmt.Errorf("unknown pair law %q", w.Dist)
	case w.Dist == "zipf" && (w.ZipfPool < 1 || w.ZipfAlpha <= 0):
		return fmt.Errorf("zipf needs a pool and a positive exponent")
	case w.Sources < 1 || w.Setups < 1:
		return fmt.Errorf("sources and setups must be positive")
	case w.LightQPS <= 0 || w.HeavyQPS < w.LightQPS:
		return fmt.Errorf("need 0 < light_qps <= heavy_qps")
	case w.Search.FromQPS <= 0 || w.Search.ToQPS <= w.Search.FromQPS ||
		w.Search.StartQPS < w.Search.FromQPS || w.Search.StartQPS > w.Search.ToQPS || w.Search.Probes < 2:
		return fmt.Errorf("bad search %+v", w.Search)
	case w.P90LimitUS <= 0:
		return fmt.Errorf("p90_limit_us must be positive")
	}
	return nil
}

func names(ws map[string]*workload) []string {
	out := make([]string, 0, len(ws))
	for n := range ws {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
