package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/hubclient"
	"hublab/internal/index"
	"hublab/internal/netserve"
	"hublab/internal/pll"
	"hublab/internal/server"
	"hublab/internal/sssp"
)

// clientName is the admission identity of the load generator's
// hubclient (sent in its hello frame).
const clientName = "loadbench"

// hotCacheEntries is the per-shard hot cache size, on in every workload
// so that uniform-gnm is the workload that bypasses it.
const hotCacheEntries = 4096

// stack is one assembled serving process, as hubserve -binary -mmap
// assembles it: an mmap'd container behind a sharded server with
// admission and a hot cache, a binary door on loopback, and one pooled
// hubclient.
type stack struct {
	w      *workload
	g      *graph.Graph
	path   string
	bytes  int64
	labels hub.Stats
	srv    *server.Server
	door   *netserve.Door
	addr   string
	client *hubclient.Client
	served chan error
	// final holds the counters read once close has drained everything.
	final struct {
		client hubclient.Stats
		door   netserve.Stats
		srv    server.Stats
	}
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	total, graph, order, build, write, open, start, first time.Duration
}

func buildGraph(gs graphSpec, seed int64) (*graph.Graph, error) {
	if gs.Kind == "gnm" {
		return gen.Gnm(gs.N, gs.M, seed)
	}
	return gen.RoadLike(gs.Rows, gs.Cols, gs.Period, seed)
}

func buildOrder(w *workload, g *graph.Graph, seed int64) ([]graph.NodeID, error) {
	if w.Order == "highway" {
		return pll.RoadHighwayOrder(w.Graph.Rows, w.Graph.Cols, w.Graph.Period)
	}
	return pll.OrderByName(g, w.Order, seed)
}

// setUp runs the hubgen path and starts serving: generate the graph,
// order and build the labeling, stream the container to disk, open it
// with mmap, start server, door and client, and answer one query
// through the client. The total is timed from the first to the last
// step; every step is a child span of one setup span.
func setUp(w *workload, seed int64, dir string, tr *tracer, parent int) (*stack, setupTimes, error) {
	var t setupTimes
	s := &stack{w: w, path: filepath.Join(dir, fmt.Sprintf("%s-%d.hli", w.Name, seed))}
	sp := tr.open("setup", parent)
	defer tr.finish(sp)
	start := time.Now()
	var err error
	fail := func(step string, err error) (*stack, setupTimes, error) {
		s.close()
		return nil, t, fmt.Errorf("setup %s: %w", step, err)
	}
	if t.graph, err = tr.timed("gen.graph", sp, func() (err error) {
		s.g, err = buildGraph(w.Graph, seed)
		return err
	}); err != nil {
		return fail("graph", err)
	}
	var order []graph.NodeID
	if t.order, err = tr.timed("pll.order", sp, func() (err error) {
		order, err = buildOrder(w, s.g, seed)
		return err
	}); err != nil {
		return fail("order", err)
	}
	var l *hub.Labeling
	if t.build, err = tr.timed("pll.build", sp, func() (err error) {
		l, err = pll.BuildUnfrozen(s.g, pll.Options{Custom: order})
		return err
	}); err != nil {
		return fail("build", err)
	}
	copts := hub.ContainerOptions{Aligned: w.Container == "v3", Compact: w.Container == "v4"}
	if t.write, err = tr.timed("hub.write", sp, func() error {
		return index.SaveStreaming(s.path, l, copts)
	}); err != nil {
		return fail("write", err)
	}
	l = nil
	var idx *index.HubLabels
	if t.open, err = tr.timed("index.open", sp, func() (err error) {
		idx, err = index.LoadMmap(s.path)
		return err
	}); err != nil {
		return fail("open", err)
	}
	if t.start, err = tr.timed("serve.start", sp, func() error { return s.start(idx) }); err != nil {
		idx.Release()
		return fail("start", err)
	}
	u, v := graph.NodeID(0), graph.NodeID(s.g.NumNodes()-1)
	var d graph.Weight
	if t.first, err = tr.timed("hubclient.first", sp, func() (err error) {
		d, err = s.client.Distance(u, v)
		return err
	}); err != nil {
		return fail("first query", err)
	}
	t.total = time.Since(start)
	if want := sssp.Distance(s.g, u, v); d != want {
		return fail("first query", fmt.Errorf("distance(%d,%d) = %d, want %d", u, v, d, want))
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return fail("stat", err)
	}
	s.bytes = fi.Size()
	s.labels = idx.Store().ComputeStats()
	return s, t, nil
}

// start assembles server, door and client around idx, which the server
// owns from here on.
func (s *stack) start(idx *index.HubLabels) error {
	s.srv = server.New(idx, server.Options{
		OwnIndex:  true,
		Admission: &flowctl.Options{},
		HotCache:  hotCacheEntries,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.door = netserve.New(s.srv, netserve.Options{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.door.Serve(ln) }()
	pool := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < pool {
		pool = n
	}
	s.client, err = hubclient.New(hubclient.Options{
		Replicas: []string{s.addr},
		Name:     clientName,
		PoolSize: pool,
		Timeout:  clientTimeout,
	})
	return err
}

// close stops client, door and server (which releases the served
// index), records their final counters and removes the container. Safe
// on a partly built stack.
func (s *stack) close() error {
	if s.client != nil {
		s.client.Close()
		s.final.client = s.client.Stats()
	}
	var err error
	if s.door != nil {
		s.door.Close()
		if serr := <-s.served; serr != nil && !errors.Is(serr, net.ErrClosed) {
			err = fmt.Errorf("binary door: %w", serr)
		}
		s.final.door = s.door.Stats()
	}
	if s.srv != nil {
		s.srv.Close()
		s.final.srv = s.srv.Stats()
	}
	if rerr := os.Remove(s.path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
		err = rerr
	}
	return err
}

// reference holds exact distances from a fixed set of source vertices,
// computed by sssp outside every timed region. Every benchmark pair has
// one endpoint among the sources, so every answer can be checked.
type reference struct {
	sources []graph.NodeID
	dist    [][]graph.Weight
}

func newReference(g *graph.Graph, k int, rng *rand.Rand) *reference {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	ref := &reference{sources: make([]graph.NodeID, k), dist: make([][]graph.Weight, k)}
	for i, v := range rng.Perm(n)[:k] {
		ref.sources[i] = graph.NodeID(v)
		ref.dist[i] = sssp.Search(g, graph.NodeID(v)).Dist
	}
	return ref
}

// checkPath reports whether p is a u–v walk along graph edges whose
// total weight is want.
func checkPath(g *graph.Graph, p []graph.NodeID, u, v graph.NodeID, want graph.Weight) bool {
	if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
		return false
	}
	var sum graph.Weight
	for i := 1; i < len(p); i++ {
		w, ok := g.EdgeWeight(p[i-1], p[i])
		if !ok {
			return false
		}
		sum += w
	}
	return sum == want
}
