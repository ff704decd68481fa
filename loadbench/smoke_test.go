package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test checks output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smallWorkloads shrinks every workload to a size that runs in about a
// second, keeping its container, order and pair law.
func smallWorkloads(t *testing.T) map[string]*workload {
	ws, err := loadWorkloads(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Graph.Kind == "gnm" {
			w.Graph.N, w.Graph.M = 300, 540
		} else {
			w.Graph.Rows, w.Graph.Cols = 12, 12
		}
		w.ZipfPool = 256
		w.Sources = 16
		w.Setups = 2
		w.LightQPS, w.HeavyQPS = 400, 800
		w.Search = search{FromQPS: 400, ToQPS: 1600, StartQPS: 800, Probes: 3}
		w.P90LimitUS = 50000
	}
	return ws
}

func runOnce(t *testing.T, ws map[string]*workload, name, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--work-dir", t.TempDir()}
	if err := run(args, ws, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", name, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", name, trace, err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed < 0 || rep.Failed > rep.Attempted {
		t.Fatalf("%s trace=%s: bad result header %+v", name, trace, rep)
	}
	return rep
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload at a small
// size untraced and traced, and checks that each run emits exactly the
// metrics BENCHMARK.json names, with their units, and that every
// workload emits the same end-to-end names.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := smallWorkloads(t)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(ws))
	}
	var firstE2E []string
	for _, wl := range spec.Workloads {
		if ws[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, tc := range []struct {
			trace string
			want  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			rep := runOnce(t, ws, wl.Name, tc.trace)
			if len(rep.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d: %v",
					wl.Name, tc.trace, len(rep.Metrics), len(tc.want), metricNames(rep.Metrics))
			}
			for _, m := range tc.want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", wl.Name, tc.trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", wl.Name, tc.trace, m.Name, got.Unit, m.Unit)
				}
			}
			if tc.trace == "0" {
				names := metricNames(rep.Metrics)
				if firstE2E == nil {
					firstE2E = names
				} else if strings.Join(names, ",") != strings.Join(firstE2E, ",") {
					t.Errorf("%s emits end-to-end metrics %v, another workload emits %v", wl.Name, names, firstE2E)
				}
			}
		}
	}
}
