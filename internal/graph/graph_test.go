package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, n-1)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph: got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", g.MaxDegree())
	}
	if g.AvgDegree() != 0 {
		t.Errorf("AvgDegree = %v, want 0", g.AvgDegree())
	}
}

func TestIsolatedVertices(t *testing.T) {
	b := NewBuilder(0, 0)
	b.Grow(5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	for v := NodeID(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestPathGraphBasics(t *testing.T) {
	g := buildPath(t, 5)
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d, want 5, 4", g.NumNodes(), g.NumEdges())
	}
	if g.Weighted() {
		t.Error("unit path should be unweighted")
	}
	wantDeg := []int{1, 2, 2, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(NodeID(v)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.6 {
		t.Errorf("AvgDegree = %v, want 1.6", got)
	}
}

func TestHasEdgeAndWeights(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	b.AddWeightedEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	tests := []struct {
		u, v NodeID
		w    Weight
		ok   bool
	}{
		{0, 1, 5, true},
		{1, 0, 5, true},
		{1, 2, 7, true},
		{2, 3, 1, true},
		{0, 2, 0, false},
		{3, 0, 0, false},
	}
	for _, tc := range tests {
		w, ok := g.EdgeWeight(tc.u, tc.v)
		if ok != tc.ok || w != tc.w {
			t.Errorf("EdgeWeight(%d,%d) = (%d,%v), want (%d,%v)", tc.u, tc.v, w, ok, tc.w, tc.ok)
		}
		if g.HasEdge(tc.u, tc.v) != tc.ok {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, !tc.ok, tc.ok)
		}
	}
}

func TestParallelEdgesKeepMinWeight(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(1, 0, 3)
	b.AddWeightedEdge(0, 1, 6)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 3 {
		t.Errorf("EdgeWeight = %d, want min weight 3", w)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name string
		add  func(*Builder)
		want error
	}{
		{"self loop", func(b *Builder) { b.AddEdge(2, 2) }, ErrSelfLoop},
		{"negative vertex", func(b *Builder) { b.AddEdge(-1, 2) }, ErrVertexRange},
		{"negative weight", func(b *Builder) { b.AddWeightedEdge(0, 1, -4) }, ErrNegativeWeight},
		{"weight Infinity", func(b *Builder) { b.AddWeightedEdge(0, 1, Infinity) }, ErrWeightRange},
		{"weight MaxInt32", func(b *Builder) { b.AddWeightedEdge(0, 1, math.MaxInt32) }, ErrWeightRange},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(4, 1)
			tc.add(b)
			b.AddEdge(0, 1) // error must stick even after valid edges
			if _, err := b.Build(); !errors.Is(err, tc.want) {
				t.Errorf("Build err = %v, want %v", err, tc.want)
			}
		})
	}
	// The largest finite weight is accepted.
	b := NewBuilder(2, 1)
	b.AddWeightedEdge(0, 1, Infinity-1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("weight Infinity-1: %v", err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != Infinity-1 {
		t.Errorf("EdgeWeight(0,1) = %d, %v; want %d", w, ok, Infinity-1)
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6, 5)
	for _, v := range []NodeID{5, 2, 4, 1, 3} {
		b.AddEdge(0, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	adj := g.Neighbors(0)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Errorf("Neighbors(0) not sorted: %v", adj)
	}
	if len(adj) != 5 {
		t.Errorf("len(Neighbors(0)) = %d, want 5", len(adj))
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(50, 100)
	seen := map[[2]NodeID]Weight{}
	for i := 0; i < 100; i++ {
		u, v := NodeID(rng.Intn(50)), NodeID(rng.Intn(50))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		w := Weight(1 + rng.Intn(20))
		if old, ok := seen[[2]NodeID{u, v}]; !ok || w < old {
			seen[[2]NodeID{u, v}] = w
		}
		b.AddWeightedEdge(u, v, w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != len(seen) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(seen))
	}
	for _, e := range g.Edges() {
		if want := seen[[2]NodeID{e.U, e.V}]; e.W != want {
			t.Errorf("edge {%d,%d} weight %d, want %d", e.U, e.V, e.W, want)
		}
	}
}

func TestIORoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"unweighted path", func() *Graph {
			b := NewBuilder(6, 5)
			for i := 0; i < 5; i++ {
				b.AddEdge(NodeID(i), NodeID(i+1))
			}
			return b.MustBuild()
		}},
		{"weighted triangle plus isolated", func() *Graph {
			b := NewBuilder(5, 3)
			b.AddWeightedEdge(0, 1, 2)
			b.AddWeightedEdge(1, 2, 3)
			b.AddWeightedEdge(0, 2, 10)
			b.Grow(5)
			return b.MustBuild()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			var buf bytes.Buffer
			if _, err := g.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			g2, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
				t.Fatalf("round trip: got (%d,%d), want (%d,%d)",
					g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			for _, e := range g.Edges() {
				w, ok := g2.EdgeWeight(e.U, e.V)
				if !ok || w != e.W {
					t.Errorf("edge {%d,%d}: got (%d,%v), want (%d,true)", e.U, e.V, w, ok, e.W)
				}
			}
		})
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"no problem line", "e 0 1\n"},
		{"empty", ""},
		{"bad record", "p 2 1 0\nx 0 1\n"},
		{"malformed edge", "p 2 1 0\ne 0\n"},
		{"bad weight", "p 2 1 1\ne 0 1 xyz\n"},
		{"weight Infinity", fmt.Sprintf("p 2 1 1\ne 0 1 %d\n", Infinity)},
		{"weight MaxInt32", fmt.Sprintf("p 2 1 1\ne 0 1 %d\n", math.MaxInt32)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader([]byte(tc.input))); err == nil {
				t.Error("Read succeeded, want error")
			}
		})
	}
	g, err := Read(strings.NewReader(fmt.Sprintf("p 2 1 1\ne 0 1 %d\n", Infinity-1)))
	if err != nil {
		t.Fatalf("weight Infinity-1: %v", err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != Infinity-1 {
		t.Errorf("EdgeWeight(0,1) = %d, %v; want %d", w, ok, Infinity-1)
	}
}

func TestReadSkipsComments(t *testing.T) {
	in := "c a comment\np 3 1 0\n\nc another\ne 0 2\n"
	g, err := Read(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.NumNodes() != 3 || !g.HasEdge(0, 2) {
		t.Errorf("unexpected graph n=%d", g.NumNodes())
	}
}

// TestDegreeSumInvariant checks the handshake lemma on random graphs.
func TestDegreeSumInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n, 3*n)
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		sum := 0
		for v := 0; v < g.NumNodes(); v++ {
			sum += g.Degree(NodeID(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAdjacencySymmetry checks undirectedness: v in adj(u) iff u in adj(v).
func TestAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(n, 2*n)
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				b.AddWeightedEdge(u, v, Weight(1+rng.Intn(9)))
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for u := NodeID(0); int(u) < n; u++ {
			for _, v := range g.Neighbors(u) {
				wu, _ := g.EdgeWeight(u, v)
				wv, ok := g.EdgeWeight(v, u)
				if !ok || wu != wv {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Errorf("got (%d,%d), want (4,3)", g.NumNodes(), g.NumEdges())
	}
	if g.TotalWeight() != 6 {
		t.Errorf("TotalWeight = %d, want 6", g.TotalWeight())
	}
}
