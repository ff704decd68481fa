package pll_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index/indextest"
	"hublab/internal/pll"
	"hublab/internal/sssp"
)

// containerBytes freezes l and serializes it (parent column included) so
// two labelings can be compared byte for byte.
func containerBytes(t *testing.T, l *hub.Labeling) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.Freeze().WriteContainer(&buf, hub.ContainerOptions{}); err != nil {
		t.Fatalf("WriteContainer: %v", err)
	}
	return buf.Bytes()
}

// TestParallelBuildMatchesSequential pins the tentpole guarantee: the
// batched parallel engine emits a labeling byte-identical to the
// sequential reference — labels, distances and the parent column — for
// every harness family, order, and worker width. This is what lets Build
// route to the parallel engine by default without perturbing any
// downstream artifact (containers, golden benchmarks, served answers).
func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, pg := range indextest.PropertyGraphs(t, 7) {
		pg := pg
		t.Run(pg.Name, func(t *testing.T) {
			seq, err := pll.Build(pg.G, pll.Options{Workers: 1})
			if err != nil {
				t.Fatalf("sequential build: %v", err)
			}
			want := containerBytes(t, seq)
			for _, workers := range []int{2, 3, 8} {
				par, err := pll.Build(pg.G, pll.Options{Workers: workers})
				if err != nil {
					t.Fatalf("parallel build (w=%d): %v", workers, err)
				}
				if got := containerBytes(t, par); !bytes.Equal(got, want) {
					t.Errorf("w=%d: parallel container differs from sequential (%d vs %d bytes)",
						workers, len(got), len(want))
				}
			}
			// The byte-equality pin is only meaningful if the common output
			// is a correct cover in the first place.
			if err := seq.VerifyCover(pg.G); err != nil {
				t.Fatalf("sequential labeling is not a cover: %v", err)
			}
		})
	}
}

// TestParallelBuildMatchesSequentialAcrossOrders re-pins byte-equality
// under every registered order, including the sampled betweenness sketch
// (whose own determinism across worker scheduling is part of the claim).
func TestParallelBuildMatchesSequentialAcrossOrders(t *testing.T) {
	g, err := gen.RoadLike(9, 9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pll.OrderNames() {
		t.Run(name, func(t *testing.T) {
			seq, err := pll.Build(g, pll.Options{OrderBy: name, Seed: 5, Workers: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := pll.Build(g, pll.Options{OrderBy: name, Seed: 5, Workers: 4})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
				t.Errorf("order %q: parallel differs from sequential", name)
			}
			if err := par.VerifyCover(g); err != nil {
				t.Errorf("order %q: %v", name, err)
			}
		})
	}
}

// TestParallelBuildLarger exercises the engine past the adaptive batch
// ramp (ranks ≥ 1024, full 64-wide batches) on both a weighted and an
// unweighted graph large enough that every commit-phase code path —
// intra-batch certificates included — actually fires.
func TestParallelBuildLarger(t *testing.T) {
	unweighted, err := gen.Gnm(2000, 3600, 3)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := gen.RoadLike(40, 40, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"gnm2000", unweighted}, {"road1600w", weighted}} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := pll.Build(tc.g, pll.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := pll.Build(tc.g, pll.Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
				t.Error("parallel container differs from sequential")
			}
			if err := par.VerifySampled(tc.g, 500, 9); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBuildProgress checks the observability contract both builders share:
// counters are monotone, and the final callback reports every root and
// exactly the committed label total.
func TestBuildProgress(t *testing.T) {
	g, err := gen.Gnm(600, 1100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var last pll.Progress
			calls := 0
			l, err := pll.Build(g, pll.Options{Workers: workers, Progress: func(p pll.Progress) {
				if p.RootsDone < last.RootsDone || p.Labels < last.Labels {
					t.Errorf("progress went backwards: %+v after %+v", p, last)
				}
				last = p
				calls++
			}})
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatal("progress callback never called")
			}
			if last.RootsDone != g.NumNodes() || last.Roots != g.NumNodes() {
				t.Errorf("final progress %+v, want all %d roots done", last, g.NumNodes())
			}
			if want := int64(l.ComputeStats().Total); last.Labels != want {
				t.Errorf("final labels %d, want %d", last.Labels, want)
			}
		})
	}
}

// TestOrderRegistry covers the registry surface hubgen -order sits on.
func TestOrderRegistry(t *testing.T) {
	g, err := gen.Gnm(50, 90, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"degree", "natural", "random", "betweenness"} {
		order, err := pll.OrderByName(g, name, 3)
		if err != nil {
			t.Fatalf("OrderByName(%q): %v", name, err)
		}
		if _, err := pll.Build(g, pll.Options{Custom: order}); err != nil {
			t.Errorf("order %q is not a permutation: %v", name, err)
		}
	}
	if _, err := pll.OrderByName(g, "nope", 0); err == nil {
		t.Error("unknown order name did not error")
	}
	if err := pll.RegisterOrder("degree", nil); err == nil {
		t.Error("re-registering a built-in did not error")
	}
	// Registration is process-global, so under -count>1 the second run
	// sees the first run's entry — only an error on a *fresh* name fails.
	err = pll.RegisterOrder("test-custom", func(g *graph.Graph, _ int64) ([]graph.NodeID, error) {
		return pll.OrderByName(g, "natural", 0)
	})
	if err != nil {
		if _, lookupErr := pll.OrderByName(g, "test-custom", 0); lookupErr != nil {
			t.Fatalf("RegisterOrder: %v (and not registered: %v)", err, lookupErr)
		}
	}
	if _, err := pll.OrderByName(g, "test-custom", 0); err != nil {
		t.Errorf("registered order not callable: %v", err)
	}
}

// TestPruneAtWeightLimit pins the prune predicate at the edge of its
// contract: the largest finite distance is Infinity-1, so label entries
// and root distances near the sentinel meet in one sum, and further
// components leave every cross pair unreachable. Sequential and parallel
// builds must agree byte for byte under every order, and every pair must
// decode to its Dijkstra distance.
func TestPruneAtWeightLimit(t *testing.T) {
	const q = graph.Infinity / 4
	b := graph.NewBuilder(10, 10)
	// Spine 0-1-2-3-4 of length exactly Infinity-1, with a tied detour
	// 1-5-2 of the same length as the edge 1-2.
	b.AddWeightedEdge(0, 1, q)
	b.AddWeightedEdge(1, 2, q)
	b.AddWeightedEdge(2, 3, q)
	b.AddWeightedEdge(3, 4, q-1)
	b.AddWeightedEdge(1, 5, 3)
	b.AddWeightedEdge(5, 2, q-3)
	// A second component with edges of weight up to Infinity-1. The path
	// 6-7-8 relaxes to exactly Infinity, which the search must reject in
	// favour of the edge 6-8; dist(6,9) is again Infinity-1.
	b.AddWeightedEdge(6, 7, graph.Infinity-1)
	b.AddWeightedEdge(7, 8, 1)
	b.AddWeightedEdge(6, 8, graph.Infinity-3)
	b.AddWeightedEdge(8, 9, 2)
	// A third, random component with weights up to Infinity/32, so that
	// many label entries and root distances are large. Its diameter stays
	// well under 32 hops, so every distance stays below Infinity.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 120; k++ {
		u, v := graph.NodeID(10+rng.Intn(60)), graph.NodeID(10+rng.Intn(60))
		if u != v {
			b.AddWeightedEdge(u, v, 1+graph.Weight(rng.Int31n(graph.Infinity/32)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	want := make([][]graph.Weight, n)
	for u := range want {
		want[u] = sssp.Dijkstra(g, graph.NodeID(u)).Dist
	}
	if want[0][4] != graph.Infinity-1 || want[6][9] != graph.Infinity-1 {
		t.Fatalf("dist(0,4) = %d, dist(6,9) = %d; want Infinity-1", want[0][4], want[6][9])
	}
	for _, name := range []string{"degree", "natural", "random"} {
		t.Run(name, func(t *testing.T) {
			seq, err := pll.Build(g, pll.Options{OrderBy: name, Seed: 3, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := containerBytes(t, seq)
			for _, workers := range []int{2, 3, 8} {
				par, err := pll.Build(g, pll.Options{OrderBy: name, Seed: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(containerBytes(t, par), wantBytes) {
					t.Errorf("w=%d: parallel container differs from sequential", workers)
				}
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					got, ok := seq.Query(graph.NodeID(u), graph.NodeID(v))
					if w := want[u][v]; got != w || ok != (w < graph.Infinity) {
						t.Errorf("dist(%d,%d) = %d, %v; want %d", u, v, got, ok, w)
					}
				}
			}
		})
	}
}
